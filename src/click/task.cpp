#include "click/task.hpp"

#include "click/element.hpp"

namespace rb {

Task::Task(Element* element, int home_core)
    : element_(element),
      home_core_(home_core),
      prof_scope_(telemetry::InternScopeName(
          element != nullptr ? "task/" + element->name() : std::string("task/anon"))) {}

void Task::BindTelemetry(telemetry::MetricRegistry* registry, const std::string& base) {
  registry->AddCounterReader(base + "/runs", [this] { return progress(); });
  registry->AddCounterReader(base + "/work", [this] { return work(); });
  tele_burst_ = registry->GetHistogram(
      base + "/burst",
      telemetry::HistogramOptions{0.0, static_cast<double>(PacketBatch::kCapacity), 64});
}

}  // namespace rb

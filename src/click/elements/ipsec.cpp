#include "click/elements/ipsec.hpp"

namespace rb {

#if defined(RB_PROFILE) && RB_PROFILE
namespace {
// Phase scopes (pipeline -> element -> phase): the AES/ESP work split out
// from the element's handoff overhead — the §4.3 "app vs packet handling"
// decomposition for the IPsec application.
telemetry::ScopeId EncryptPhase() {
  static const telemetry::ScopeId id = telemetry::InternScopeName("phase/esp_encrypt");
  return id;
}
telemetry::ScopeId DecryptPhase() {
  static const telemetry::ScopeId id = telemetry::InternScopeName("phase/esp_decrypt");
  return id;
}
}  // namespace
#endif

IpsecEncrypt::IpsecEncrypt(const EspConfig& config) : Element(1, 2), tunnel_(config) {}

void IpsecEncrypt::PushBatch(int /*port*/, PacketBatch& batch) {
  bool encapsulated[PacketBatch::kCapacity];
  {
#if defined(RB_PROFILE) && RB_PROFILE
    RB_PROF_SCOPE(EncryptPhase());
#endif
    tunnel_.EncapsulateBatch(batch.begin(), batch.size(), encapsulated);
  }
  PacketBatch ok;
  PacketBatch fail;
  for (uint32_t i = 0; i < batch.size(); ++i) {
    (encapsulated[i] ? ok : fail).PushBack(batch[i]);
  }
  batch.Clear();
  encrypted_ += ok.size();
  OutputBatch(0, ok);
  OutputBatch(1, fail);
}

IpsecDecrypt::IpsecDecrypt(const EspConfig& config) : Element(1, 2), tunnel_(config) {}

void IpsecDecrypt::PushBatch(int /*port*/, PacketBatch& batch) {
  PacketBatch ok;
  PacketBatch fail;
  {
#if defined(RB_PROFILE) && RB_PROFILE
    RB_PROF_SCOPE(DecryptPhase());
#endif
    for (Packet* p : batch) {
      if (tunnel_.Decapsulate(p)) {
        ok.PushBack(p);
      } else {
        fail.PushBack(p);
      }
    }
  }
  batch.Clear();
  decrypted_ += ok.size();
  OutputBatch(0, ok);
  OutputBatch(1, fail);
}

}  // namespace rb

#include "click/config_parser.hpp"

#include <algorithm>
#include <cctype>

#include "click/elements/check_ip_header.hpp"
#include "click/elements/classifier.hpp"
#include "click/elements/dec_ip_ttl.hpp"
#include "click/elements/ether.hpp"
#include "click/elements/flow_policer.hpp"
#include "click/elements/from_device.hpp"
#include "click/elements/ip_lookup.hpp"
#include "click/elements/ipsec.hpp"
#include "click/elements/misc.hpp"
#include "click/elements/nat.hpp"
#include "click/elements/queue.hpp"
#include "click/elements/to_device.hpp"
#include "common/strings.hpp"
#include "program/compiled_classifier.hpp"

namespace rb {
namespace {

std::string StripComments(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  size_t i = 0;
  while (i < text.size()) {
    if (text[i] == '/' && i + 1 < text.size() && text[i + 1] == '/') {
      while (i < text.size() && text[i] != '\n') {
        i++;
      }
    } else if (text[i] == '/' && i + 1 < text.size() && text[i + 1] == '*') {
      i += 2;
      while (i + 1 < text.size() && !(text[i] == '*' && text[i + 1] == '/')) {
        i++;
      }
      i = i + 2 <= text.size() ? i + 2 : text.size();
    } else {
      out += text[i++];
    }
  }
  return out;
}

bool IsIdentifier(const std::string& s) {
  if (s.empty() || !(isalpha(static_cast<unsigned char>(s[0])) || s[0] == '_')) {
    return false;
  }
  for (char c : s) {
    if (!(isalnum(static_cast<unsigned char>(c)) || c == '_')) {
      return false;
    }
  }
  return true;
}

// Splits "Class(arg, arg)" into class name and args; returns false if the
// text is not of that shape (a bare identifier gets empty args).
bool SplitClassSpec(const std::string& text, std::string* class_name,
                    std::vector<std::string>* args) {
  std::string s = Trim(text);
  size_t open = s.find('(');
  if (open == std::string::npos) {
    if (!IsIdentifier(s)) {
      return false;
    }
    *class_name = s;
    args->clear();
    return true;
  }
  if (s.back() != ')') {
    return false;
  }
  *class_name = Trim(s.substr(0, open));
  if (!IsIdentifier(*class_name)) {
    return false;
  }
  std::string inner = s.substr(open + 1, s.size() - open - 2);
  args->clear();
  if (!Trim(inner).empty()) {
    for (const std::string& a : Split(inner, ',')) {
      args->push_back(Trim(a));
    }
  }
  return true;
}

struct Builder {
  Router* router;
  const ConfigContext* ctx;
  std::string error;

  bool Fail(const std::string& msg) {
    if (error.empty()) {
      error = msg;
    }
    return false;
  }

  bool IntArg(const std::vector<std::string>& args, size_t i, long def, long* out) {
    if (i >= args.size()) {
      *out = def;
      return true;
    }
    char* end = nullptr;
    long v = strtol(args[i].c_str(), &end, 0);
    if (end == args[i].c_str() || *end != '\0') {
      return Fail(Format("bad integer argument '%s'", args[i].c_str()));
    }
    *out = v;
    return true;
  }

  // Splits a Click keyword argument ("KEY value") for elements that take
  // keyword args only (no positional form).
  bool KeywordArg(const char* elem, const std::string& arg, std::string* key,
                  std::string* val) {
    size_t sp = arg.find_first_of(" \t");
    if (sp == std::string::npos) {
      return Fail(Format("%s: expected 'KEY value', got '%s'", elem, arg.c_str()));
    }
    *key = Trim(arg.substr(0, sp));
    *val = Trim(arg.substr(sp));
    return true;
  }

  bool NumberVal(const char* elem, const std::string& key, const std::string& val,
                 double* out) {
    char* end = nullptr;
    double v = strtod(val.c_str(), &end);
    if (end == val.c_str() || *end != '\0' || v < 0) {
      return Fail(Format("%s: bad value '%s' for %s", elem, val.c_str(), key.c_str()));
    }
    *out = v;
    return true;
  }

  NicPort* Port(long index) {
    if (index < 0 || static_cast<size_t>(index) >= ctx->ports.size()) {
      Fail(Format("device index %ld out of range (%zu ports in context)", index,
                  ctx->ports.size()));
      return nullptr;
    }
    return ctx->ports[static_cast<size_t>(index)];
  }

  // Instantiates a class; returns nullptr on error.
  Element* Make(const std::string& class_name, const std::vector<std::string>& args) {
    long a0 = 0;
    long a1 = 0;
    long a2 = 0;
    long a3 = 0;
    if (class_name == "FromDevice") {
      if (args.size() < 2) {
        Fail("FromDevice needs (port, queue [, kp [, core]])");
        return nullptr;
      }
      if (!IntArg(args, 0, 0, &a0) || !IntArg(args, 1, 0, &a1) || !IntArg(args, 2, 32, &a2) ||
          !IntArg(args, 3, -1, &a3)) {
        return nullptr;
      }
      NicPort* port = Port(a0);
      if (port == nullptr) {
        return nullptr;
      }
      if (a1 < 0 || a1 >= port->num_rx_queues()) {
        Fail(Format("FromDevice queue %ld out of range", a1));
        return nullptr;
      }
      return router->Add<FromDevice>(port, static_cast<uint16_t>(a1), static_cast<uint16_t>(a2),
                                     static_cast<int>(a3));
    }
    if (class_name == "ToDevice") {
      if (args.size() < 2) {
        Fail("ToDevice needs (port, queue [, burst [, core]])");
        return nullptr;
      }
      if (!IntArg(args, 0, 0, &a0) || !IntArg(args, 1, 0, &a1) || !IntArg(args, 2, 32, &a2) ||
          !IntArg(args, 3, -1, &a3)) {
        return nullptr;
      }
      NicPort* port = Port(a0);
      if (port == nullptr) {
        return nullptr;
      }
      if (a1 < 0 || a1 >= port->num_tx_queues()) {
        Fail(Format("ToDevice queue %ld out of range", a1));
        return nullptr;
      }
      return router->Add<ToDevice>(port, static_cast<uint16_t>(a1), static_cast<uint16_t>(a2),
                                   static_cast<int>(a3));
    }
    if (class_name == "Queue") {
      // Queue([capacity][, KEY value ...]) — Click-style keyword args:
      //   Queue(1024, HI 768, LO 384)            watermark backpressure
      //   Queue(CAPACITY 512, AQM codel, TARGET_US 500, INTERVAL_US 10000)
      QueueOptions opt;
      for (size_t i = 0; i < args.size(); ++i) {
        const std::string& arg = args[i];
        size_t sp = arg.find_first_of(" \t");
        if (sp == std::string::npos) {
          if (i != 0) {
            Fail(Format("Queue: positional arg '%s' must come first", arg.c_str()));
            return nullptr;
          }
          if (!IntArg(args, 0, 1024, &a0)) {
            return nullptr;
          }
          opt.capacity = static_cast<size_t>(a0);
          continue;
        }
        std::string key = Trim(arg.substr(0, sp));
        std::string val = Trim(arg.substr(sp));
        long num = 0;
        if (key == "AQM") {
          std::string mode;
          for (char c : val) {
            mode.push_back(static_cast<char>(tolower(static_cast<unsigned char>(c))));
          }
          if (mode == "codel") {
            opt.aqm = AqmMode::kCoDel;
          } else if (mode == "droptail") {
            opt.aqm = AqmMode::kTailDrop;
          } else {
            Fail(Format("Queue: unknown AQM mode '%s'", val.c_str()));
            return nullptr;
          }
          continue;
        }
        char* end = nullptr;
        num = strtol(val.c_str(), &end, 0);
        if (end == val.c_str() || *end != '\0' || num < 0) {
          Fail(Format("Queue: bad value '%s' for %s", val.c_str(), key.c_str()));
          return nullptr;
        }
        if (key == "CAPACITY") {
          opt.capacity = static_cast<size_t>(num);
        } else if (key == "HI") {
          opt.hi_watermark = static_cast<size_t>(num);
        } else if (key == "LO") {
          opt.lo_watermark = static_cast<size_t>(num);
        } else if (key == "TARGET_US") {
          opt.codel_target_s = static_cast<double>(num) * 1e-6;
        } else if (key == "INTERVAL_US") {
          opt.codel_interval_s = static_cast<double>(num) * 1e-6;
        } else {
          Fail(Format("Queue: unknown keyword '%s'", key.c_str()));
          return nullptr;
        }
      }
      // Validate here (Fail, not RB_CHECK) so a bad config file reports an
      // error instead of aborting the process.
      if (opt.hi_watermark > opt.capacity) {
        Fail("Queue: HI watermark above capacity");
        return nullptr;
      }
      if (opt.hi_watermark > 0 && opt.lo_watermark >= opt.hi_watermark) {
        Fail("Queue: LO watermark must be below HI");
        return nullptr;
      }
      if (opt.hi_watermark == 0 && opt.lo_watermark > 0) {
        Fail("Queue: LO watermark requires HI");
        return nullptr;
      }
      if (opt.aqm == AqmMode::kCoDel && (opt.codel_target_s <= 0 || opt.codel_interval_s <= 0)) {
        Fail("Queue: CoDel TARGET_US/INTERVAL_US must be positive");
        return nullptr;
      }
      return router->Add<QueueElement>(opt);
    }
    if (class_name == "CheckIPHeader") {
      return router->Add<CheckIpHeader>();
    }
    if (class_name == "DecIPTTL") {
      return router->Add<DecIpTtl>();
    }
    if (class_name == "IPLookup") {
      if (ctx->table == nullptr) {
        Fail("IPLookup requires a routing table in the ConfigContext");
        return nullptr;
      }
      if (!IntArg(args, 0, 1, &a0)) {
        return nullptr;
      }
      return router->Add<IpLookup>(ctx->table, static_cast<int>(a0));
    }
    if (class_name == "EtherClassifier") {
      return router->Add<EtherClassifier>();
    }
    if (class_name == "Classifier") {
      // Click-style pattern classifier, compiled straight to a
      // MatchProgram: one output per pattern, first match wins, no match
      // drops. e.g. Classifier(12/0800 23/06, 12/0800, -).
      if (args.empty()) {
        Fail("Classifier needs at least one pattern");
        return nullptr;
      }
      program::MatchProgram prog;
      std::string perr;
      if (!program::CompileClassifierPatterns(args, &prog, &perr)) {
        Fail(Format("Classifier: %s", perr.c_str()));
        return nullptr;
      }
      return router->Add<CompiledClassifier>(std::move(prog), static_cast<int>(args.size()));
    }
    if (class_name == "IpProtoClassifier") {
      std::vector<uint8_t> protos;
      for (size_t i = 0; i < args.size(); ++i) {
        long v;
        if (!IntArg(args, i, 0, &v)) {
          return nullptr;
        }
        protos.push_back(static_cast<uint8_t>(v));
      }
      if (protos.empty()) {
        Fail("IpProtoClassifier needs at least one protocol number");
        return nullptr;
      }
      return router->Add<IpProtoClassifier>(protos);
    }
    if (class_name == "HashSwitch") {
      if (!IntArg(args, 0, 2, &a0)) {
        return nullptr;
      }
      return router->Add<HashSwitch>(static_cast<int>(a0));
    }
    if (class_name == "RoundRobinSwitch") {
      if (!IntArg(args, 0, 2, &a0)) {
        return nullptr;
      }
      return router->Add<RoundRobinSwitch>(static_cast<int>(a0));
    }
    if (class_name == "Counter") {
      return router->Add<CounterElement>();
    }
    if (class_name == "Discard") {
      return router->Add<Discard>();
    }
    if (class_name == "Tee") {
      if (!IntArg(args, 0, 2, &a0)) {
        return nullptr;
      }
      return router->Add<Tee>(static_cast<int>(a0));
    }
    if (class_name == "Paint") {
      if (!IntArg(args, 0, 0, &a0)) {
        return nullptr;
      }
      return router->Add<Paint>(static_cast<uint8_t>(a0));
    }
    if (class_name == "PaintSwitch") {
      if (!IntArg(args, 0, 2, &a0)) {
        return nullptr;
      }
      return router->Add<PaintSwitch>(static_cast<int>(a0));
    }
    if (class_name == "StripEther") {
      return router->Add<StripEther>();
    }
    if (class_name == "IPsecEncrypt") {
      return router->Add<IpsecEncrypt>(ctx->esp);
    }
    if (class_name == "IPsecDecrypt") {
      return router->Add<IpsecDecrypt>(ctx->esp);
    }
    if (class_name == "SetFlowHash") {
      return router->Add<SetFlowHash>();
    }
    if (class_name == "Nat") {
      // Nat(EXTERNAL a.b.c.d, BASE_PORT n, CAPACITY n, SHARDS n,
      //     HI f, LO f, IDLE_MS n) — keyword args only.
      NatOptions opt;
      for (size_t i = 0; i < args.size(); ++i) {
        std::string key, val;
        if (!KeywordArg("Nat", args[i], &key, &val)) {
          return nullptr;
        }
        if (key == "EXTERNAL") {
          if (!ParseIpv4(val, &opt.external_ip)) {
            Fail(Format("Nat: bad EXTERNAL address '%s'", val.c_str()));
            return nullptr;
          }
          continue;
        }
        double num = 0;
        if (!NumberVal("Nat", key, val, &num)) {
          return nullptr;
        }
        if (key == "BASE_PORT") {
          opt.base_port = static_cast<uint16_t>(num);
        } else if (key == "CAPACITY") {
          opt.capacity = static_cast<size_t>(num);
        } else if (key == "SHARDS") {
          opt.shards = static_cast<int>(num);
        } else if (key == "HI") {
          opt.hi_watermark = num;
        } else if (key == "LO") {
          opt.lo_watermark = num;
        } else if (key == "IDLE_MS") {
          opt.idle_timeout_ms = static_cast<uint32_t>(num);
        } else {
          Fail(Format("Nat: unknown keyword '%s'", key.c_str()));
          return nullptr;
        }
      }
      if (!(opt.hi_watermark > 0 && opt.hi_watermark <= 1.0 && opt.lo_watermark > 0 &&
            opt.lo_watermark < opt.hi_watermark)) {
        Fail("Nat: watermarks must satisfy 0 < LO < HI <= 1");
        return nullptr;
      }
      if (opt.base_port + opt.capacity > 65536) {
        Fail("Nat: CAPACITY does not fit the port space above BASE_PORT");
        return nullptr;
      }
      return router->Add<Nat>(opt);
    }
    if (class_name == "FlowPolicer") {
      // FlowPolicer(RATE pps, BURST n, CAPACITY n, MODE POLICE|FIREWALL,
      //             SHARDS n, HI f, LO f, IDLE_MS n) — keyword args only.
      FlowPolicerOptions opt;
      for (size_t i = 0; i < args.size(); ++i) {
        std::string key, val;
        if (!KeywordArg("FlowPolicer", args[i], &key, &val)) {
          return nullptr;
        }
        if (key == "MODE") {
          std::string mode;
          for (char c : val) {
            mode.push_back(static_cast<char>(toupper(static_cast<unsigned char>(c))));
          }
          if (mode == "POLICE") {
            opt.mode = PolicerMode::kPolice;
          } else if (mode == "FIREWALL") {
            opt.mode = PolicerMode::kFirewall;
          } else {
            Fail(Format("FlowPolicer: unknown MODE '%s'", val.c_str()));
            return nullptr;
          }
          continue;
        }
        double num = 0;
        if (!NumberVal("FlowPolicer", key, val, &num)) {
          return nullptr;
        }
        if (key == "RATE") {
          opt.rate_pps = static_cast<uint64_t>(num);
        } else if (key == "BURST") {
          opt.burst = static_cast<uint64_t>(num);
        } else if (key == "CAPACITY") {
          opt.capacity = static_cast<size_t>(num);
        } else if (key == "SHARDS") {
          opt.shards = static_cast<int>(num);
        } else if (key == "HI") {
          opt.hi_watermark = num;
        } else if (key == "LO") {
          opt.lo_watermark = num;
        } else if (key == "IDLE_MS") {
          opt.idle_timeout_ms = static_cast<uint32_t>(num);
        } else {
          Fail(Format("FlowPolicer: unknown keyword '%s'", key.c_str()));
          return nullptr;
        }
      }
      if (opt.rate_pps == 0 || opt.burst == 0) {
        Fail("FlowPolicer: RATE and BURST must be positive");
        return nullptr;
      }
      if (!(opt.hi_watermark > 0 && opt.hi_watermark <= 1.0 && opt.lo_watermark > 0 &&
            opt.lo_watermark < opt.hi_watermark)) {
        Fail("FlowPolicer: watermarks must satisfy 0 < LO < HI <= 1");
        return nullptr;
      }
      return router->Add<FlowPolicer>(opt);
    }
    Fail(Format("unknown element class '%s'", class_name.c_str()));
    return nullptr;
  }
};

// One endpoint of a connection hop: an element reference plus optional
// [port] selectors on either side.
struct Endpoint {
  Element* element = nullptr;
  int in_port = 0;
  int out_port = 0;
};

// Reads the text inside a [n] port selector: decimal digits, with spaces
// allowed around them. A sign, a letter or an empty selector is refused.
bool ParsePortSelector(Builder* b, const std::string& text, int* port) {
  const std::string digits = Trim(text);
  const bool ok = !digits.empty() && digits.size() <= 9 &&
                  std::all_of(digits.begin(), digits.end(),
                              [](char c) { return c >= '0' && c <= '9'; });
  if (!ok) {
    return b->Fail(
        Format("bad port selector '[%s]': expected decimal digits", text.c_str()));
  }
  *port = std::stoi(digits);
  return true;
}

// Parses "name", "Class(args)", "[2] name", "name [1]", "[0] name [1]".
bool ParseEndpoint(Builder* b, std::map<std::string, Element*>* named, const std::string& raw,
                   Endpoint* out) {
  std::string s = Trim(raw);
  out->in_port = 0;
  out->out_port = 0;
  // Leading [n] = input port.
  if (!s.empty() && s.front() == '[') {
    size_t close = s.find(']');
    if (close == std::string::npos) {
      return b->Fail("unterminated [port] selector");
    }
    if (!ParsePortSelector(b, s.substr(1, close - 1), &out->in_port)) {
      return false;
    }
    s = Trim(s.substr(close + 1));
  }
  // Trailing [n] = output port.
  if (!s.empty() && s.back() == ']') {
    size_t open = s.rfind('[');
    if (open == std::string::npos) {
      return b->Fail("unterminated [port] selector");
    }
    if (!ParsePortSelector(b, s.substr(open + 1, s.size() - open - 2), &out->out_port)) {
      return false;
    }
    s = Trim(s.substr(0, open));
  }
  if (s.empty()) {
    return b->Fail("empty element reference in connection");
  }
  auto it = named->find(s);
  if (it != named->end()) {
    out->element = it->second;
    return true;
  }
  // Inline anonymous element: must look like a class spec and must not be
  // a bare lowercase identifier the user probably meant as a name.
  std::string class_name;
  std::vector<std::string> args;
  if (!SplitClassSpec(s, &class_name, &args)) {
    return b->Fail(Format("malformed element reference '%s'", s.c_str()));
  }
  if (s.find('(') == std::string::npos && !isupper(static_cast<unsigned char>(class_name[0]))) {
    return b->Fail(Format("unknown element name '%s'", s.c_str()));
  }
  out->element = b->Make(class_name, args);
  return out->element != nullptr;
}

}  // namespace

ConfigParseResult ParseClickConfig(const std::string& text, Router* router,
                                   const ConfigContext& context) {
  ConfigParseResult result;
  Builder builder{router, &context, ""};

  std::string clean = StripComments(text);
  std::vector<std::string> statements = Split(clean, ';');
  for (size_t si = 0; si < statements.size(); ++si) {
    std::string stmt = Trim(statements[si]);
    if (stmt.empty()) {
      continue;
    }
    result.statements++;
    auto fail = [&](const std::string& msg) {
      result.error = Format("statement %zu: %s", si + 1, msg.c_str());
      return result;
    };

    size_t decl = stmt.find("::");
    if (decl != std::string::npos && stmt.find("->") == std::string::npos) {
      std::string name = Trim(stmt.substr(0, decl));
      if (!IsIdentifier(name)) {
        return fail(Format("bad element name '%s'", name.c_str()));
      }
      if (result.elements.count(name)) {
        return fail(Format("element '%s' declared twice", name.c_str()));
      }
      std::string class_name;
      std::vector<std::string> args;
      if (!SplitClassSpec(stmt.substr(decl + 2), &class_name, &args)) {
        return fail("malformed class specification");
      }
      Element* e = builder.Make(class_name, args);
      if (e == nullptr) {
        return fail(builder.error);
      }
      e->set_name(name);
      result.elements[name] = e;
      continue;
    }

    if (stmt.find("->") != std::string::npos) {
      // Chain: hop -> hop -> hop.
      std::vector<std::string> hops;
      size_t start = 0;
      while (true) {
        size_t arrow = stmt.find("->", start);
        if (arrow == std::string::npos) {
          hops.push_back(stmt.substr(start));
          break;
        }
        hops.push_back(stmt.substr(start, arrow - start));
        start = arrow + 2;
      }
      if (hops.size() < 2) {
        return fail("connection needs at least two elements");
      }
      Endpoint prev;
      for (size_t h = 0; h < hops.size(); ++h) {
        Endpoint cur;
        if (!ParseEndpoint(&builder, &result.elements, hops[h], &cur)) {
          return fail(builder.error);
        }
        if (h > 0) {
          if (!router->CanConnect(prev.element, prev.out_port, cur.element, cur.in_port)) {
            return fail(Format("cannot connect '%s' [%d] -> [%d] '%s' (port out of range or "
                               "already wired)",
                               prev.element->name().c_str(), prev.out_port, cur.in_port,
                               cur.element->name().c_str()));
          }
          router->Connect(prev.element, prev.out_port, cur.element, cur.in_port);
          result.connections++;
        }
        prev = cur;
      }
      continue;
    }

    return fail(Format("unrecognized statement '%s'", stmt.c_str()));
  }

  // Graph-level rule, checked once the whole graph is wired (Click
  // rejects push/pull disagreement at configure time, not at run time).
  result.error = router->PullPathError();
  result.ok = result.error.empty();
  return result;
}

}  // namespace rb

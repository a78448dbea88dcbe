// A parser for the Click router configuration language (the declarative
// syntax of Kohler et al. that the paper's programmability story builds
// on — §8: "our only intervention was to enforce a specific
// element-to-core allocation").
//
// Supported subset:
//
//   // comments and /* block comments */
//   src :: FromDevice(0, 0, 32);        // declarations: name :: Class(args)
//   check :: CheckIPHeader;
//   src -> check -> Queue(1024) -> ToDevice(1, 0);   // chains, inline
//   lookup [1] -> [0] drop;             // explicit port selectors
//
// Classes: FromDevice(port, queue [, kp [, core]]), ToDevice(port, queue
// [, burst [, core]]), Queue([capacity]), CheckIPHeader, DecIPTTL,
// IPLookup(n_next_hops), EtherClassifier, IpProtoClassifier(p0, p1, ...),
// Classifier(pattern, ...) — Click pattern syntax ("12/0800 23/06", "-"),
// compiled to a MatchProgram, one output per pattern, no match drops —
// HashSwitch(n), RoundRobinSwitch(n), Counter, Discard, Tee(n), Paint(c),
// PaintSwitch(n), StripEther, IPsecEncrypt, IPsecDecrypt, SetFlowHash,
// Nat(EXTERNAL a.b.c.d, BASE_PORT n, CAPACITY n, SHARDS n, HI f, LO f,
// IDLE_MS n), FlowPolicer(RATE pps, BURST n, CAPACITY n, MODE
// POLICE|FIREWALL, SHARDS n, HI f, LO f, IDLE_MS n).
//
// Device indices resolve against the ConfigContext's port list; IPLookup
// uses the context's routing table and IPsec* the context's ESP config.
// A Queue's output may lead only through Counters to a ToDevice (or stay
// unwired); any other element there is reported as an error naming it
// (Router::PullPathError).
#ifndef RB_CLICK_CONFIG_PARSER_HPP_
#define RB_CLICK_CONFIG_PARSER_HPP_

#include <map>
#include <string>
#include <vector>

#include "click/router.hpp"
#include "crypto/esp.hpp"
#include "lookup/lpm.hpp"
#include "netdev/nic.hpp"

namespace rb {

struct ConfigContext {
  std::vector<NicPort*> ports;     // FromDevice/ToDevice indices
  const LpmTable* table = nullptr;  // IPLookup
  EspConfig esp;                    // IPsecEncrypt/IPsecDecrypt
};

struct ConfigParseResult {
  bool ok = false;
  std::string error;                       // first error, with statement index
  std::map<std::string, Element*> elements;  // named elements (borrowed)
  int statements = 0;
  int connections = 0;
};

// Parses `text` and materializes the graph into `router` (which must not
// be initialized yet). On error, elements already added remain in the
// router but are unreachable; callers should discard the router.
ConfigParseResult ParseClickConfig(const std::string& text, Router* router,
                                   const ConfigContext& context);

}  // namespace rb

#endif  // RB_CLICK_CONFIG_PARSER_HPP_

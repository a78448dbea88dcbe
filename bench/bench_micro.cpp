// google-benchmark microbenchmarks for the data-plane primitives: LPM
// lookup (DIR-24-8 vs the reference trie), AES-128/CBC (portable, AES-NI
// and multi-stream on each kernel), the Internet checksum, flow hashing,
// the flow table (one key at a time and a burst at a time), SPSC vs
// locked rings, ESP encapsulation (one frame and a burst), the router's
// two edges (NIC burst delivery and the pool's bulk free), and its
// set-up: the DIR-24-8 build and the packet pool.
//
// These measure this host's wall clock and make no claim of matching the
// paper's testbed; they document the relative costs (e.g. D-lookup vs
// trie, AES per byte) that the calibrated model encodes.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "click/elements/nat.hpp"
#include "crypto/aes128.hpp"
#include "crypto/cbc.hpp"
#include "crypto/esp.hpp"
#include "flow/flow_table.hpp"
#include "lookup/dir24_8.hpp"
#include "lookup/radix_trie.hpp"
#include "lookup/table_gen.hpp"
#include "netdev/nic.hpp"
#include "netdev/ring.hpp"
#include "packet/checksum.hpp"
#include "packet/flow.hpp"
#include "packet/batch.hpp"
#include "packet/pool.hpp"
#include "workload/abilene.hpp"
#include "workload/flows.hpp"
#include "workload/injector.hpp"
#include "workload/synthetic.hpp"

namespace {

std::vector<rb::RouteEntry> SharedTable() {
  static std::vector<rb::RouteEntry> table = [] {
    rb::TableGenConfig cfg;
    cfg.num_routes = 256 * 1024;  // the paper's table size
    return rb::GenerateRoutingTable(cfg);
  }();
  return table;
}

void BM_LookupDir24_8(benchmark::State& state) {
  static rb::Dir24_8* dut = [] {
    auto* t = new rb::Dir24_8();
    t->InsertAll(SharedTable());
    return t;
  }();
  rb::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dut->Lookup(static_cast<uint32_t>(rng.Next())));
  }
}
BENCHMARK(BM_LookupDir24_8);

void BM_LookupRadixTrie(benchmark::State& state) {
  static rb::RadixTrie* dut = [] {
    auto* t = new rb::RadixTrie();
    t->InsertAll(SharedTable());
    return t;
  }();
  rb::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dut->Lookup(static_cast<uint32_t>(rng.Next())));
  }
}
BENCHMARK(BM_LookupRadixTrie);

// Router set-up, part 1: the DIR-24-8 build from perfbench's table
// (256K routes, one next hop per port), each iteration into a fresh
// table, so the time includes faulting in tbl24's pages.
void BM_Dir24_8Build(benchmark::State& state) {
  rb::TableGenConfig cfg;
  cfg.num_routes = 256 * 1024;
  cfg.num_next_hops = 2;
  cfg.seed = 42;
  const std::vector<rb::RouteEntry> routes = rb::GenerateRoutingTable(cfg);
  for (auto _ : state) {
    rb::Dir24_8 table;
    table.InsertAll(routes);
    benchmark::DoNotOptimize(&table);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(routes.size()));
}
BENCHMARK(BM_Dir24_8Build)->Unit(benchmark::kMillisecond);

void BM_Aes128Block(benchmark::State& state) {
  uint8_t key[16] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  rb::Aes128 aes(key);
  uint8_t block[16] = {0};
  for (auto _ : state) {
    aes.EncryptBlock(block, block);
    benchmark::DoNotOptimize(block[0]);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_Aes128Block);

// CBC over one stream of range(0) bytes, portable FIPS-197 cipher.
void BM_AesCbcPortable(benchmark::State& state) {
  uint8_t key[16] = {0};
  uint8_t iv[16] = {0};
  rb::AesCbc cbc(key);
  std::vector<uint8_t> buf(static_cast<size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    cbc.EncryptPortable(buf.data(), buf.size(), iv);
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(buf.size()));
}
BENCHMARK(BM_AesCbcPortable)->Arg(64)->Arg(576)->Arg(1504);

// The same stream on the serial AES-NI kernel.
void BM_AesCbcAesni(benchmark::State& state) {
  uint8_t key[16] = {0};
  uint8_t iv[16] = {0};
  rb::AesCbc cbc(key);
  if (cbc.kernel() == rb::CbcKernel::kPortable) {
    state.SkipWithError("this CPU has no AES-NI");
    return;
  }
  std::vector<uint8_t> buf(static_cast<size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    cbc.Encrypt(buf.data(), buf.size(), iv);
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(buf.size()));
}
BENCHMARK(BM_AesCbcAesni)->Arg(64)->Arg(576)->Arg(1504);

// 32 ESP payloads of Abilene-mix frames through one multi-stream call, on
// the kernel named by range(0) (a CbcKernel). A kernel this CPU lacks is
// reported as skipped, so the log names every kernel that did not run.
void BM_AesCbcEncryptManyAbilene(benchmark::State& state) {
  const auto kernel = static_cast<rb::CbcKernel>(state.range(0));
  state.SetLabel(rb::CbcKernelName(kernel));
  if (!rb::CbcKernelSupported(kernel)) {
    const std::string why = std::string(rb::CbcKernelName(kernel)) + ": this CPU lacks the kernel";
    state.SkipWithError(why.c_str());
    return;
  }
  uint8_t key[16] = {0};
  rb::AesCbc cbc(key);
  rb::AbileneSizeDistribution sizes;
  rb::Rng rng(7);
  std::vector<std::vector<uint8_t>> bufs(32);
  std::vector<rb::CbcStream> streams(bufs.size());
  int64_t bytes = 0;
  for (size_t i = 0; i < bufs.size(); ++i) {
    const size_t inner = sizes.NextSize(&rng) - 14;  // the IP packet ESP encrypts
    bufs[i].assign(inner + rb::CbcPadLength(inner, /*esp_trailer=*/true) + 2, 0xab);
    streams[i].data = bufs[i].data();
    streams[i].len = bufs[i].size();
    bytes += static_cast<int64_t>(bufs[i].size());
  }
  for (auto _ : state) {
    cbc.EncryptManyOn(kernel, streams.data(), streams.size());
    benchmark::DoNotOptimize(streams.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * bytes);
}
BENCHMARK(BM_AesCbcEncryptManyAbilene)
    ->ArgName("kernel")
    ->Arg(static_cast<int64_t>(rb::CbcKernel::kPortable))
    ->Arg(static_cast<int64_t>(rb::CbcKernel::kAesni))
    ->Arg(static_cast<int64_t>(rb::CbcKernel::kVaes));

void BM_Checksum(benchmark::State& state) {
  std::vector<uint8_t> buf(static_cast<size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rb::Checksum(buf.data(), buf.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(buf.size()));
}
BENCHMARK(BM_Checksum)->Arg(20)->Arg(64)->Arg(1500);

void BM_FlowHash(benchmark::State& state) {
  rb::FlowKey key{0x0a000001, 0x0b000002, 1234, 80, 6};
  for (auto _ : state) {
    key.src_port++;
    benchmark::DoNotOptimize(rb::FlowHash64(key));
  }
}
BENCHMARK(BM_FlowHash);

// A table shaped like a Nat's (32768 slots, the Nat's shards, window and
// watermarks, as perfbench's rtr_nat_64 sizes it) under a Zipf(1.1)
// churn stream of 64K flows, ticking once per 512 keys.
rb::FlowTableConfig NatSizedTable() {
  const rb::NatOptions nat;
  rb::FlowTableConfig tc;
  tc.capacity = 32768;
  tc.shards = nat.shards;
  tc.max_probe_buckets = nat.max_probe_buckets;
  tc.hi_watermark = nat.hi_watermark;
  tc.lo_watermark = nat.lo_watermark;
  tc.idle_timeout = nat.idle_timeout_ms;
  tc.evict_on_full = nat.evict_on_full;
  return tc;
}

const std::vector<rb::FlowKey>& ChurnKeys() {
  static const std::vector<rb::FlowKey> keys = [] {
    rb::FlowChurnConfig cc;
    cc.target_flows = 1 << 16;
    cc.zipf_s = 1.1;
    cc.churn_per_packet = 1e-3;
    rb::FlowChurnGenerator gen(cc);
    std::vector<rb::FlowKey> out(1 << 20);
    for (rb::FlowKey& k : out) {
      k = gen.Next().key;
    }
    return out;
  }();
  return keys;
}

void BM_FlowTableFindOrInsert(benchmark::State& state) {
  rb::FlowTable table(NatSizedTable());
  const std::vector<rb::FlowKey>& keys = ChurnKeys();
  uint64_t n = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        table.FindOrInsert(keys[n & (keys.size() - 1)], static_cast<uint32_t>(n >> 9)));
    n++;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_FlowTableFindOrInsert);

void BM_FlowTableFindOrInsertBatch(benchmark::State& state) {
  constexpr uint32_t kBurst = 32;  // perfbench's poll burst
  rb::FlowTable table(NatSizedTable());
  const std::vector<rb::FlowKey>& keys = ChurnKeys();
  uint64_t n = 0;
  for (auto _ : state) {
    table.FindOrInsertBatch(&keys[n & (keys.size() - 1)], kBurst, static_cast<uint32_t>(n >> 9),
                            [](uint32_t, rb::FlowEntry* e, bool) { benchmark::DoNotOptimize(e); });
    n += kBurst;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kBurst);
}
BENCHMARK(BM_FlowTableFindOrInsertBatch);

void BM_SpscRing(benchmark::State& state) {
  rb::SpscRing<uint64_t> ring(1024);
  uint64_t v = 0;
  for (auto _ : state) {
    ring.TryPush(v++);
    uint64_t out = 0;
    ring.TryPop(&out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_SpscRing);

void BM_LockedRing(benchmark::State& state) {
  rb::LockedRing<uint64_t> ring(1024);
  uint64_t v = 0;
  for (auto _ : state) {
    ring.TryPush(v++);
    uint64_t out = 0;
    ring.TryPop(&out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_LockedRing);

void BM_EspEncapsulate(benchmark::State& state) {
  rb::EspConfig cfg;
  rb::EspTunnel enc(cfg);
  rb::EspTunnel dec(cfg);
  rb::PacketPool pool(4);
  rb::FrameSpec spec;
  spec.size = static_cast<uint32_t>(state.range(0));
  spec.flow = {1, 2, 3, 4, 17};
  rb::Packet* p = rb::AllocFrame(spec, &pool);
  for (auto _ : state) {
    enc.Encapsulate(p);
    dec.Decapsulate(p);
  }
  pool.Free(p);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_EspEncapsulate)->Arg(64)->Arg(576)->Arg(1500);

void BM_EspEncapsulateBatchAbilene(benchmark::State& state) {
  // The call IpsecEncrypt makes: one EncapsulateBatch over a burst of 32
  // Abilene-mix UDP frames, so the multi-stream kernel and the framing
  // are timed together. Only that call is timed; each frame is put back
  // to its original bytes in between.
  constexpr size_t kN = 32;
  rb::EspTunnel tunnel(rb::EspConfig{});
  rb::PacketPool pool(kN);
  rb::AbileneSizeDistribution sizes;
  rb::Rng rng(7);
  rb::Packet* pkts[kN];
  std::vector<std::vector<uint8_t>> originals(kN);
  int64_t bytes = 0;
  for (size_t i = 0; i < kN; ++i) {
    rb::FrameSpec spec;
    spec.size = sizes.NextSize(&rng);
    spec.flow = {0x0a000000u + static_cast<uint32_t>(i), 0xc0a80002u, 1234, 5678, 17};
    pkts[i] = rb::AllocFrame(spec, &pool);
    originals[i].assign(pkts[i]->data(), pkts[i]->data() + pkts[i]->length());
    bytes += static_cast<int64_t>(spec.size);
  }
  bool ok[kN];
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    tunnel.EncapsulateBatch(pkts, kN, ok);
    benchmark::DoNotOptimize(ok);
    benchmark::ClobberMemory();
    const auto t1 = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());
    for (size_t i = 0; i < kN; ++i) {
      RB_CHECK(ok[i]);
      pkts[i]->Pull(rb::Ipv4View::kMinSize + rb::EspTunnel::kEspHeaderBytes +
                    rb::EspTunnel::kIvBytes);
      pkts[i]->Trim(pkts[i]->length() - static_cast<uint32_t>(originals[i].size()));
      memcpy(pkts[i]->data(), originals[i].data(), originals[i].size());
    }
  }
  pool.FreeBulk(pkts, kN);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * bytes);
}
BENCHMARK(BM_EspEncapsulateBatchAbilene)->UseManualTime();

void BM_MaterializeFrame(benchmark::State& state) {
  rb::PacketPool pool(4);
  rb::FrameSpec spec;
  spec.size = 64;
  spec.flow = {1, 2, 3, 4, 17};
  rb::Packet* p = pool.Alloc();
  for (auto _ : state) {
    rb::MaterializeFrame(spec, p);
    benchmark::DoNotOptimize(p->data()[0]);
  }
  pool.Free(p);
}
BENCHMARK(BM_MaterializeFrame);

void BM_InjectorFillFrame(benchmark::State& state) {
  // The template-patch path BM_MaterializeFrame's full construction is
  // being compared against.
  rb::PacketPool pool(4);
  rb::InjectorConfig cfg;
  cfg.synthetic.packet_size = 64;
  rb::BulkInjector injector(cfg, &pool);
  rb::FrameSpec spec;
  spec.size = 64;
  spec.flow = {1, 2, 3, 4, 17};
  rb::Packet* p = pool.Alloc();
  for (auto _ : state) {
    injector.FillFrame(spec, p);
    benchmark::DoNotOptimize(p->data()[0]);
  }
  pool.Free(p);
}
BENCHMARK(BM_InjectorFillFrame);

void BM_PoolAllocFreeSingle(benchmark::State& state) {
  rb::PacketPool pool(512);
  rb::Packet* pkts[256];
  const size_t n = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    for (size_t i = 0; i < n; ++i) {
      pkts[i] = pool.Alloc();
    }
    for (size_t i = 0; i < n; ++i) {
      pool.Free(pkts[i]);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * static_cast<int64_t>(n));
}
BENCHMARK(BM_PoolAllocFreeSingle)->Arg(64)->Arg(256);

void BM_PoolAllocBulkFree(benchmark::State& state) {
  rb::PacketPool pool(512);
  rb::Packet* pkts[256];
  const size_t n = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    size_t got = pool.AllocBulk(pkts, n);
    pool.FreeBulk(pkts, got);
    benchmark::DoNotOptimize(got);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * static_cast<int64_t>(n));
}
BENCHMARK(BM_PoolAllocBulkFree)->Arg(64)->Arg(256);

void BM_PoolFreeBulk(benchmark::State& state) {
  // One FreeBulk of 512 packets annotated on both metadata lines, as a
  // drain returns them; freed in a fixed shuffled order, not the order
  // they were carved in. Only the FreeBulk call is timed.
  constexpr size_t kN = 512;
  rb::PacketPool pool(kN);
  rb::Packet* carved[kN];
  rb::Packet* pkts[kN];
  std::vector<size_t> order(kN);
  for (size_t i = 0; i < kN; ++i) {
    order[i] = (i * 199) % kN;  // 199 is coprime to 512: a permutation
  }
  for (auto _ : state) {
    RB_CHECK(pool.AllocBulk(carved, kN) == kN);
    for (size_t i = 0; i < kN; ++i) {
      pkts[i] = carved[order[i]];
      pkts[i]->SetLength(64);
      pkts[i]->set_flow_seq(i);
      pkts[i]->set_ingress_cycles(i);
    }
    const auto t0 = std::chrono::steady_clock::now();
    pool.FreeBulk(pkts, kN);
    benchmark::DoNotOptimize(pkts);
    benchmark::ClobberMemory();
    const auto t1 = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * static_cast<int64_t>(kN));
}
BENCHMARK(BM_PoolFreeBulk)->UseManualTime();

// Router set-up, part 2: a router-sized pool (16384 packets, 35 MiB),
// constructed and destroyed per iteration.
void BM_PacketPoolConstruct(benchmark::State& state) {
  for (auto _ : state) {
    rb::PacketPool pool(16384);
    benchmark::DoNotOptimize(&pool);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_PacketPoolConstruct)->Unit(benchmark::kMillisecond);

void BM_NicDeliverBatch(benchmark::State& state) {
  // NicPort::DeliverBatch of 256-frame bursts shaped like perfbench's
  // fwd_64 (64 B UDP frames from 4096 flows) into 1 or 4 rx queues with
  // kn 16. Each iteration also commits the staged remainder and polls
  // every frame back, so the same 256 frames circulate.
  constexpr uint32_t kBurst = 256;
  rb::NicConfig cfg;
  cfg.num_rx_queues = static_cast<uint16_t>(state.range(0));
  cfg.kn = 16;
  cfg.ring_entries = 512;
  rb::NicPort nic(cfg);
  rb::PacketPool pool(kBurst);
  rb::PacketBatch batch;
  for (uint32_t i = 0; i < kBurst; ++i) {
    rb::FrameSpec spec;
    spec.size = 64;
    spec.flow = {0x0a000000u + (i * 16) % 4096, 0xc0a80001u, static_cast<uint16_t>(1024 + i),
                 80, 17};
    batch.PushBack(rb::AllocFrame(spec, &pool));
  }
  for (auto _ : state) {
    nic.DeliverBatch(&batch, 0.0);
    nic.FlushAllStaged();
    for (uint16_t q = 0; q < cfg.num_rx_queues; ++q) {
      batch.CommitAppended(static_cast<uint32_t>(nic.PollRx(q, batch.tail(), batch.room())));
    }
    benchmark::DoNotOptimize(batch.size());
  }
  RB_CHECK(batch.size() == kBurst);
  batch.ReleaseAll();
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kBurst);
}
BENCHMARK(BM_NicDeliverBatch)->Arg(1)->Arg(4);

void BM_InjectorBurst(benchmark::State& state) {
  // Whole injection path per packet: bulk carve + template fill.
  rb::PacketPool pool(512);
  rb::InjectorConfig cfg;
  cfg.synthetic.packet_size = 64;
  rb::BulkInjector injector(cfg, &pool);
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  rb::PacketBatch batch;
  for (auto _ : state) {
    injector.NextBurst(n, &batch);
    for (rb::Packet* p : batch) {
      pool.Free(p);
    }
    batch.Clear();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_InjectorBurst)->Arg(64)->Arg(256);

void BM_InjectorBurstPlanned(benchmark::State& state) {
  // Same path with a precomputed patch plan: generator, hash, and
  // checksum work moved to setup — what the fig9 inject scope measures.
  rb::PacketPool pool(512);
  rb::InjectorConfig cfg;
  cfg.synthetic.packet_size = 64;
  rb::BulkInjector injector(cfg, &pool);
  injector.PrecomputePlan(4096);
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  rb::PacketBatch batch;
  for (auto _ : state) {
    injector.NextBurst(n, &batch);
    for (rb::Packet* p : batch) {
      pool.Free(p);
    }
    batch.Clear();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_InjectorBurstPlanned)->Arg(64)->Arg(256);

void BM_InjectorBurstPlannedAbilene(benchmark::State& state) {
  // Trimodal frame sizes (mean ~730 B): the fill cost is dominated by
  // payload stores into long-evicted buffer lines.
  rb::PacketPool pool(512);
  rb::InjectorConfig cfg;
  cfg.abilene = true;
  cfg.recycled_payload_is_clean = true;
  rb::BulkInjector injector(cfg, &pool);
  injector.PrecomputePlan(4096);
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  rb::PacketBatch batch;
  for (auto _ : state) {
    injector.NextBurst(n, &batch);
    for (rb::Packet* p : batch) {
      pool.Free(p);
    }
    batch.Clear();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_InjectorBurstPlannedAbilene)->Arg(256);

}  // namespace

BENCHMARK_MAIN();

#include "setup.h"

#include <cmath>
#include <utility>

#include "datagen/mutation_gen.h"
#include "datagen/query_gen.h"
#include "util/rng.h"
#include "util/zipf.h"

namespace perfbench {
namespace {

// Request slots generated per run; the stream is cycled beyond this.
constexpr size_t kStreamSlots = size_t{1} << 20;

// Fixed generator seeds of the query pool and the write sequence.
constexpr uint64_t kPoolSeed = 0xB0A7;
constexpr uint64_t kMutationSeed = 0x6D7574;

std::vector<WorkloadSpec> MakeSpecs() {
  WorkloadSpec read;
  read.name = "serve_read";
  // Two connections, not four: with four clients, four transport threads
  // and two workers the closed loop oversubscribes a 4-vCPU host and its
  // throughput follows the host's CPU steal (run-to-run spread 0.39 of the
  // median over five runs, against about 0.12 with two).
  read.connections = 2;

  WorkloadSpec mixed = read;
  mixed.name = "serve_mixed";
  mixed.write_share = 0.02;

  WorkloadSpec tail;
  tail.name = "paper_tail";
  tail.served = false;
  tail.p = 6;
  tail.pool = 512;
  tail.zipf_s = 0.0;
  tail.engine_threads = 4;
  tail.workers = 0;
  tail.connections = 0;
  tail.cache_mb = 0;

  // One publish rebuilds index entries for up to hundreds of affected
  // vertices (15-400 ms, about 150 ms on average, on a 4-vCPU x86 VM), so
  // 80 probes take about 12 s; the tail rule then reports their p86. With
  // 40 the p75 moved by 12-14% of its median over five runs.
  read.write_probes = 80;
  tail.write_probes = 80;
  return {read, mixed, tail};
}

ktg::server::ServerOptions ServerOptionsFor(const WorkloadSpec& spec) {
  ktg::server::ServerOptions sopts;
  sopts.workers = spec.workers;
  sopts.cache_mb = spec.cache_mb;
  sopts.checker = ktg::CheckerKind::kNlrnl;
  return sopts;
}

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = MakeSpecs();
  return specs;
}

}  // namespace

ktg::Result<WorkloadSpec> LookupWorkload(const std::string& name) {
  for (const WorkloadSpec& s : Specs()) {
    if (s.name == name) return s;
  }
  return ktg::Status::InvalidArgument("unknown workload: " + name);
}

ktg::Result<Inputs> MakeInputs(const WorkloadSpec& spec, uint64_t seed) {
  // The dataset, the query pool and the write sequence are fixed, like a
  // paper's datasets and query groups: drawing them per seed moved
  // serve_read between 6k and 21k q/s and paper_tail between 142 and 261
  // q/s over five seeds, far beyond any useful bound. The seed draws the
  // traffic over them: which query each slot asks, where the writes fall,
  // and the order of each pass.
  Inputs in;
  auto dataset = ktg::GetPreset(spec.preset, spec.scale);
  if (!dataset.ok()) return dataset.status();
  in.dataset = *dataset;
  in.graph = ktg::BuildDataset(in.dataset);

  ktg::WorkloadOptions wopts;
  wopts.num_queries = spec.pool;
  wopts.keyword_count = spec.wq;
  wopts.group_size = spec.p;
  wopts.tenuity = spec.k;
  wopts.top_n = spec.n;
  wopts.frequency_banded = true;
  ktg::Rng qrng(kPoolSeed);
  in.pool = ktg::GenerateWorkload(in.graph, wopts, qrng);
  if (in.pool.size() != spec.pool) {
    return ktg::Status::Internal("query generation produced " +
                                 std::to_string(in.pool.size()) + " of " +
                                 std::to_string(spec.pool) + " queries");
  }

  ktg::Rng srng(ktg::Mix64(seed * 0x9E3779B97F4A7C15ULL + 3));
  size_t batches = spec.write_probes;
  if (spec.served) {
    // Popularity rank r is pool query r; the pool is already random.
    const ktg::ZipfDistribution zipf(spec.pool, spec.zipf_s);
    // Write slots are evenly spaced: random spacing changed the reads
    // between writes, and with them the throughput, by about 9% per run.
    const uint64_t write_every =
        spec.write_share > 0
            ? static_cast<uint64_t>(std::llround(1.0 / spec.write_share))
            : 0;
    in.stream.resize(kStreamSlots);
    size_t writes = 0;
    for (size_t i = 0; i < in.stream.size(); ++i) {
      if (write_every > 0 && i % write_every == write_every - 1) {
        in.stream[i] = kWriteSlot;
        ++writes;
      } else {
        in.stream[i] = static_cast<uint32_t>(zipf.Sample(srng));
      }
    }
    batches = std::max(batches, writes);
  } else {
    // Direct library calls: every pool query once per pass, each pass in
    // a fresh seeded order.
    in.stream.reserve(kStreamSlots / 16);
    std::vector<uint32_t> order(spec.pool);
    for (uint32_t i = 0; i < spec.pool; ++i) order[i] = i;
    while (in.stream.size() + spec.pool <= in.stream.capacity()) {
      srng.Shuffle(order);
      in.stream.insert(in.stream.end(), order.begin(), order.end());
    }
  }
  if (batches > 0) {
    ktg::MutationWorkloadOptions mopts;
    mopts.num_batches = static_cast<uint32_t>(batches);
    mopts.edges_per_batch = 2;
    mopts.keywords_per_batch = 1;
    ktg::Rng mrng(kMutationSeed);
    in.mutations = ktg::GenerateMutationWorkload(in.graph, mopts, mrng);
  }
  return in;
}

void ServeStack::Stop() {
  if (tcp != nullptr) tcp->Shutdown();
  if (server != nullptr) server->Stop();
}

ktg::Status StartServeStack(const WorkloadSpec& spec,
                            const ktg::DatasetSpec& dataset, ServeStack* out,
                            double* seconds, SpanLog* log) {
  const int64_t c0 = CpuNs();
  const int32_t root = log ? log->Begin("setup", 0) : -1;
  int32_t s = log ? log->Begin("datagen.build", 0, root) : -1;
  ktg::AttributedGraph graph = ktg::BuildDataset(dataset);
  if (log) log->End(s);
  s = log ? log->Begin("server.start", 0, root) : -1;
  out->server = std::make_unique<ktg::server::KtgServer>(
      std::move(graph), ServerOptionsFor(spec));
  KTG_RETURN_IF_ERROR(out->server->Start());
  out->tcp = std::make_unique<ktg::server::TcpServer>(*out->server);
  KTG_RETURN_IF_ERROR(out->tcp->Listen(0));
  out->tcp->Start();
  out->port = out->tcp->port();
  if (log) {
    log->End(s);
    log->End(root);
  }
  *seconds = static_cast<double>(CpuNs() - c0) / 1e9;
  return ktg::Status::OK();
}

}  // namespace perfbench

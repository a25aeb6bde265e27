// Copyright (c) 2026 The ktg Authors.

#include "datagen/generators.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/macros.h"

namespace ktg {

Graph BarabasiAlbert(uint32_t n, uint32_t edges_per_vertex, Rng& rng) {
  KTG_CHECK(edges_per_vertex >= 1);
  KTG_CHECK(n >= edges_per_vertex + 1);
  GraphBuilder builder(n);

  // Repeated-endpoint list: picking a uniform element is degree-biased
  // preferential attachment.
  std::vector<VertexId> endpoints;
  endpoints.reserve(2ull * n * edges_per_vertex);

  // Seed clique over the first m+1 vertices.
  const uint32_t m = edges_per_vertex;
  for (uint32_t i = 0; i <= m; ++i) {
    for (uint32_t j = i + 1; j <= m; ++j) {
      builder.AddEdge(i, j);
      endpoints.push_back(i);
      endpoints.push_back(j);
    }
  }

  std::vector<VertexId> targets;
  for (uint32_t v = m + 1; v < n; ++v) {
    targets.clear();
    // Sample m distinct degree-biased targets.
    while (targets.size() < m) {
      const VertexId t = endpoints[rng.Below(endpoints.size())];
      if (std::find(targets.begin(), targets.end(), t) == targets.end()) {
        targets.push_back(t);
      }
    }
    for (const VertexId t : targets) {
      builder.AddEdge(v, t);
      endpoints.push_back(v);
      endpoints.push_back(t);
    }
  }
  return builder.Build();
}

Graph ChungLuPowerLaw(uint32_t n, double avg_degree, double exponent,
                      Rng& rng) {
  KTG_CHECK(n >= 2);
  KTG_CHECK(exponent > 2.0);
  // Power-law expected degrees w_i ∝ (i + i0)^(-1/(exponent-1)).
  const double alpha = 1.0 / (exponent - 1.0);
  std::vector<double> w(n);
  double sum = 0.0;
  for (uint32_t i = 0; i < n; ++i) {
    w[i] = std::pow(static_cast<double>(i + 1), -alpha);
    sum += w[i];
  }
  const double scale = avg_degree * n / sum;
  double total = 0.0;
  for (auto& x : w) {
    x *= scale;
    total += x;
  }

  GraphBuilder builder(n);
  // Efficient Chung–Lu (Miller–Hagberg): for each i, walk j > i with
  // geometric skips calibrated to an upper-bound probability, then accept
  // with the exact ratio. Weights are descending, so p_ij <= w_i*w_j'/total
  // is monotone in j and the skipping stays valid.
  for (uint32_t i = 0; i + 1 < n; ++i) {
    uint32_t j = i + 1;
    double p = std::min(1.0, w[i] * w[j] / total);
    while (j < n && p > 0) {
      if (p != 1.0) {
        const double r = rng.NextDouble();
        j += static_cast<uint32_t>(std::floor(std::log(1.0 - r) /
                                              std::log(1.0 - p)));
      }
      if (j >= n) break;
      const double q = std::min(1.0, w[i] * w[j] / total);
      if (rng.NextDouble() < q / p) builder.AddEdge(i, j);
      p = q;
      ++j;
    }
  }
  return builder.Build();
}

Graph ErdosRenyi(uint32_t n, double edge_probability, Rng& rng) {
  GraphBuilder builder(n);
  if (edge_probability <= 0.0) return builder.Build();
  if (edge_probability >= 1.0) return CompleteGraph(n);
  // Geometric skipping over the C(n,2) edge slots.
  const double log_1mp = std::log(1.0 - edge_probability);
  uint64_t slot = 0;
  const uint64_t total = static_cast<uint64_t>(n) * (n - 1) / 2;
  while (true) {
    const double r = rng.NextDouble();
    slot += 1 + static_cast<uint64_t>(std::floor(std::log(1.0 - r) / log_1mp));
    if (slot > total) break;
    // Map slot-1 (0-based) to a pair (i, j), i < j.
    const uint64_t e = slot - 1;
    // Row i satisfies: offset_i <= e < offset_{i+1},
    // offset_i = i*n - i(i+3)/2...
    // Solve by the quadratic formula on cumulative row sizes.
    const double nn = static_cast<double>(n);
    uint64_t i = static_cast<uint64_t>(
        std::floor(nn - 0.5 - std::sqrt((nn - 0.5) * (nn - 0.5) - 2.0 *
                                        static_cast<double>(e))));
    auto row_offset = [n](uint64_t row) {
      return row * (n - 1) - row * (row - 1) / 2;
    };
    while (i > 0 && row_offset(i) > e) --i;
    while (row_offset(i + 1) <= e) ++i;
    const uint64_t j = i + 1 + (e - row_offset(i));
    builder.AddEdge(static_cast<VertexId>(i), static_cast<VertexId>(j));
  }
  return builder.Build();
}

Graph WattsStrogatz(uint32_t n, uint32_t neighbors_each_side, double beta,
                    Rng& rng) {
  KTG_CHECK(n > 2 * neighbors_each_side);
  GraphBuilder builder(n);
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t d = 1; d <= neighbors_each_side; ++d) {
      VertexId target = (i + d) % n;
      if (rng.Chance(beta)) {
        // Rewire to a uniform non-self target (duplicates collapse in the
        // builder, matching the usual simple-graph variant).
        do {
          target = static_cast<VertexId>(rng.Below(n));
        } while (target == i);
      }
      builder.AddEdge(i, target);
    }
  }
  return builder.Build();
}

Graph PathGraph(uint32_t n) {
  GraphBuilder builder(n);
  for (uint32_t i = 0; i + 1 < n; ++i) builder.AddEdge(i, i + 1);
  return builder.Build();
}

Graph CycleGraph(uint32_t n) {
  KTG_CHECK(n >= 3);
  GraphBuilder builder(n);
  for (uint32_t i = 0; i < n; ++i) builder.AddEdge(i, (i + 1) % n);
  return builder.Build();
}

Graph GridGraph(uint32_t rows, uint32_t cols) {
  GraphBuilder builder(rows * cols);
  for (uint32_t r = 0; r < rows; ++r) {
    for (uint32_t c = 0; c < cols; ++c) {
      const VertexId v = r * cols + c;
      if (c + 1 < cols) builder.AddEdge(v, v + 1);
      if (r + 1 < rows) builder.AddEdge(v, v + cols);
    }
  }
  return builder.Build();
}

Graph CompleteGraph(uint32_t n) {
  GraphBuilder builder(n);
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = i + 1; j < n; ++j) builder.AddEdge(i, j);
  }
  return builder.Build();
}

Graph AryTree(uint32_t n, uint32_t arity) {
  KTG_CHECK(arity >= 1);
  GraphBuilder builder(n);
  for (uint32_t i = 1; i < n; ++i) builder.AddEdge(i, (i - 1) / arity);
  return builder.Build();
}

Graph StochasticBlockModel(uint32_t n, uint32_t communities, double p_in,
                           double p_out, Rng& rng) {
  KTG_CHECK(communities >= 1);
  KTG_CHECK(p_in >= 0.0 && p_in <= 1.0);
  KTG_CHECK(p_out >= 0.0 && p_out <= 1.0);
  GraphBuilder builder(n);
  // Direct Bernoulli sampling per pair; SBM presets stay small enough that
  // the O(n^2) loop is fine (use ErdosRenyi's skip-sampling for big flat
  // graphs).
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = i + 1; j < n; ++j) {
      const bool same = (i % communities) == (j % communities);
      if (rng.Chance(same ? p_in : p_out)) builder.AddEdge(i, j);
    }
  }
  return builder.Build();
}

}  // namespace ktg

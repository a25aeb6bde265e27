#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>

#include "util/json_writer.h"

namespace perfbench {

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : samples) sum += x;
  return sum / static_cast<double>(samples.size());
}

TailPercentile TailRule(std::vector<double> samples) {
  TailPercentile t;
  t.n = samples.size();
  if (samples.empty()) return t;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  if (n >= 1000) {
    const auto idx =
        static_cast<size_t>(std::ceil(0.99 * static_cast<double>(n))) - 1;
    t.value = samples[idx];
    t.q = 0.99;
  } else if (n > 10) {
    t.value = samples[n - 11];
    t.q = static_cast<double>(n - 10) / static_cast<double>(n);
  } else {
    t.value = samples.back();
    t.q = 1.0;
  }
  return t;
}

uint64_t FailureTally::failed() const {
  return std::min(attempted, errors + rejected + timeouts + invalid);
}

double FailureTally::failed_frac() const {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed()) /
                              static_cast<double>(attempted);
}

FailureTally& FailureTally::operator+=(const FailureTally& o) {
  attempted += o.attempted;
  errors += o.errors;
  rejected += o.rejected;
  timeouts += o.timeouts;
  invalid += o.invalid;
  return *this;
}

int32_t SpanLog::Begin(const char* name, uint64_t request, int32_t parent) {
  const int64_t now = NowNs();
  return Add(name, now, now, request, parent);
}

void SpanLog::End(int32_t index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
}

int32_t SpanLog::Add(const char* name, int64_t start_ns, int64_t end_ns,
                     uint64_t request, int32_t parent) {
  spans_.push_back({name, start_ns, end_ns, parent, request});
  return static_cast<int32_t>(spans_.size() - 1);
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || static_cast<size_t>(s.parent) >= spans.size()) {
      continue;
    }
    const Span& p = spans[static_cast<size_t>(s.parent)];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) children[static_cast<size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t cur_lo = 0;
    int64_t cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = std::max<int64_t>(0, spans[i].end_ns - spans[i].start_ns) -
              covered;
  }
  return self;
}

std::map<std::string, NameTotals> SelfTimeByName(
    const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::map<std::string, NameTotals> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    NameTotals& t = out[spans[i].name];
    t.count++;
    t.self_ns += self[i];
  }
  return out;
}

std::vector<double> SelfTimesMs(const std::vector<Span>& spans,
                                const char* name) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::vector<double> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (std::string_view(spans[i].name) == name) {
      out.push_back(static_cast<double>(self[i]) / 1e6);
    }
  }
  return out;
}

bool WriteSpans(const std::string& path,
                const std::vector<std::vector<Span>>& per_thread) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread\tindex\tname\tstart_ns\tend_ns\tparent\trequest\n");
  for (size_t t = 0; t < per_thread.size(); ++t) {
    const auto& spans = per_thread[t];
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%zu\t%zu\t%s\t%lld\t%lld\t%d\t%llu\n", t, i, s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent,
                   static_cast<unsigned long long>(s.request));
    }
  }
  return std::fclose(f) == 0;
}

std::string ResultLine(bool correct, const FailureTally& tally,
                       const std::vector<Metric>& metrics) {
  ktg::JsonWriter w;
  w.BeginObject();
  w.KV("correct", correct);
  w.KV("attempted", tally.attempted);
  w.KV("failed", tally.failed());
  w.Key("metrics").BeginObject();
  for (const Metric& m : metrics) {
    w.Key(m.name).BeginObject();
    w.KV("value", m.value).KV("unit", m.unit);
    w.EndObject();
  }
  w.EndObject().EndObject();
  return w.str();
}

}  // namespace perfbench

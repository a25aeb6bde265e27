#include "calibrate.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "harness.h"

namespace perfbench {
namespace {

constexpr uint32_t kVertices = 1u << 13;
constexpr uint32_t kEdges = 1u << 15;
constexpr uint32_t kSources = 1024;
constexpr int kEchoRoundTrips = 100;
constexpr size_t kEchoBytes = 200;

uint64_t SplitMix(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Calibrator::Calibrator() {
  uint64_t state = 0xCA11B2A7E;
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  edges.reserve(2 * size_t{kEdges});
  for (uint32_t i = 0; i < kEdges; ++i) {
    const auto u = static_cast<uint32_t>(SplitMix(state) % kVertices);
    const auto v = static_cast<uint32_t>(SplitMix(state) % kVertices);
    edges.emplace_back(u, v);
    edges.emplace_back(v, u);
  }
  std::sort(edges.begin(), edges.end());
  offsets_.assign(kVertices + 1, 0);
  targets_.reserve(edges.size());
  for (const auto& [u, v] : edges) {
    offsets_[u + 1]++;
    targets_.push_back(v);
  }
  for (uint32_t i = 0; i < kVertices; ++i) offsets_[i + 1] += offsets_[i];
  stamp_.assign(kVertices, 0);
}

Calibrator::~Calibrator() {
  // The echo thread sees end of stream and returns.
  if (client_fd_ >= 0) {
    ::shutdown(client_fd_, SHUT_RDWR);
    ::close(client_fd_);
  }
  if (echo_.joinable()) echo_.join();
  if (echo_fd_ >= 0) ::close(echo_fd_);
}

std::string Calibrator::Start() {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) return std::string("socket: ") + std::strerror(errno);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  auto* sa = reinterpret_cast<sockaddr*>(&addr);
  if (::bind(listener, sa, sizeof(addr)) != 0 || ::listen(listener, 1) != 0 ||
      ::getsockname(listener, sa, &len) != 0 ||
      (client_fd_ = ::socket(AF_INET, SOCK_STREAM, 0)) < 0 ||
      ::connect(client_fd_, sa, sizeof(addr)) != 0 ||
      (echo_fd_ = ::accept(listener, nullptr, nullptr)) < 0) {
    const std::string why = std::string("echo connection: ") +
                            std::strerror(errno);
    ::close(listener);
    return why;
  }
  ::close(listener);
  const int one = 1;
  ::setsockopt(client_fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::setsockopt(echo_fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const int fd = echo_fd_;
  echo_ = std::thread([fd] {
    char buf[4 * kEchoBytes];
    for (;;) {
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n <= 0 || ::write(fd, buf, static_cast<size_t>(n)) != n) return;
    }
  });
  return RunEcho(1) > 0 ? "" : "echo round trip failed";
}

int64_t Calibrator::RunEcho(int round_trips) {
  char line[kEchoBytes];
  for (size_t i = 0; i < kEchoBytes; ++i) {
    line[i] = static_cast<char>('a' + i % 26);
  }
  char buf[kEchoBytes];
  const int64_t c0 = CpuNs();
  for (int r = 0; r < round_trips; ++r) {
    if (::write(client_fd_, line, kEchoBytes) !=
        static_cast<ssize_t>(kEchoBytes)) {
      return 0;
    }
    for (size_t got = 0; got < kEchoBytes;) {
      const ssize_t n = ::read(client_fd_, buf, kEchoBytes - got);
      if (n <= 0) return 0;
      got += static_cast<size_t>(n);
    }
  }
  return CpuNs() - c0;
}

int64_t Calibrator::RunBatch() {
  const int64_t c0 = CpuNs();
  uint64_t visited = 0;
  for (uint32_t s = 0; s < kSources; ++s) {
    const uint32_t src = (s * 2654435761u) % kVertices;
    ++epoch_;
    stamp_[src] = epoch_;
    frontier_.assign(1, src);
    for (int hop = 0; hop < 2; ++hop) {
      next_.clear();
      for (const uint32_t u : frontier_) {
        for (uint32_t e = offsets_[u]; e < offsets_[u + 1]; ++e) {
          const uint32_t v = targets_[e];
          if (stamp_[v] == epoch_) continue;
          stamp_[v] = epoch_;
          next_.push_back(v);
        }
      }
      visited += next_.size();
      frontier_.swap(next_);
    }
  }
  sink_ += visited;
  return CpuNs() - c0;
}

double Calibrator::Measure() {
  RunBatch();
  int64_t ns = 0;
  for (int i = 0; i < kBatchesPerMeasure; ++i) ns += RunBatch();
  RunEcho(5);
  const int64_t echo = RunEcho(kEchoRoundTrips);
  if (echo <= 0) return 0.0;
  return static_cast<double>(ns) / kBatchesPerMeasure +
         static_cast<double>(echo);
}

Calibrator& SharedCalibrator() {
  static Calibrator calibrator;
  return calibrator;
}

double SpeedFactor(const std::vector<double>& batch_ns, size_t c) {
  if (c >= batch_ns.size()) return 0.0;
  const double after = c + 1 < batch_ns.size() ? batch_ns[c + 1]
                                                : batch_ns[c];
  const double mean = 0.5 * (batch_ns[c] + after);
  return mean > 0 ? kReferenceNs / mean : 0.0;
}

void SpeedTrack::Mark() {
  begin_cpu_.push_back(CpuNs());
  batch_ns_.push_back(SharedCalibrator().Measure());
  end_cpu_.push_back(CpuNs());
}

double SpeedTrack::ReferenceNs(size_t c) const {
  if (c + 1 >= batch_ns_.size()) return 0.0;
  return static_cast<double>(begin_cpu_[c + 1] - end_cpu_[c]) * Factor(c);
}

std::vector<double> ChunkedTimes::ReferenceMs(const SpeedTrack& track) const {
  std::vector<double> out(cpu_ms.size());
  for (size_t i = 0; i < cpu_ms.size(); ++i) {
    out[i] = static_cast<double>(cpu_ms[i]) * track.Factor(chunk[i]);
  }
  return out;
}

std::vector<double> ReferenceSeconds(const std::vector<double>& cpu_s,
                                     const SpeedTrack& track) {
  std::vector<double> out;
  for (size_t i = 0; i < cpu_s.size(); ++i) {
    out.push_back(cpu_s[i] * track.Factor(i));
  }
  return out;
}

}  // namespace perfbench

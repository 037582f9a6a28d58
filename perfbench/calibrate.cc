#include "calibrate.hh"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <string>

#include "spans.hh"

namespace perfbench {

namespace {

constexpr std::size_t kArenaBytes = std::size_t{4} << 20;
/** 512 KiB of chain: a random cycle through every link. */
constexpr std::size_t kChainLinks = std::size_t{1} << 17;
/** Keys are drawn from this many values, so the map holds up to 16Ki. */
constexpr uint64_t kKeyMask = (uint64_t{1} << 14) - 1;
constexpr int kAluSteps = 60000;
constexpr int kChainSteps = 6000;
constexpr int kMapSteps = 2000;

inline uint64_t
xorshift(uint64_t &s)
{
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
}

} // namespace

double
residentMib()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmRSS:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

Calibration::Calibration()
    : residentBefore_(perfbench::residentMib()), arena_(kArenaBytes),
      buffer_(arena_.data(), arena_.size(),
              std::pmr::null_memory_resource()),
      pool_(&buffer_), map_(&pool_)
{
    // Sattolo's algorithm: one cycle through every link, so the walk
    // is a chain of dependent loads with no locality.
    chain_.resize(kChainLinks);
    for (std::size_t i = 0; i < kChainLinks; ++i)
        chain_[i] = static_cast<uint32_t>(i);
    for (std::size_t i = kChainLinks - 1; i > 0; --i)
        std::swap(chain_[i], chain_[xorshift(state_) % i]);
    // Bring the map to its steady size before anything is timed.
    for (int c = 0; c < kChunks; ++c)
        chunk();
    residentMib_ = perfbench::residentMib() - residentBefore_;
}

void
Calibration::chunk()
{
    // Dependent integer arithmetic.
    uint64_t x = state_, y = sink_ | 1;
    for (int i = 0; i < kAluSteps; ++i) {
        x = x * 6364136223846793005ull + y;
        y ^= x >> 29;
    }
    sink_ += x ^ y;
    // Pointer chasing.
    for (int i = 0; i < kChainSteps; ++i)
        cursor_ = chain_[cursor_];
    sink_ += cursor_;
    // An ordered map under churn.
    for (int i = 0; i < kMapSteps; ++i) {
        const uint64_t r = xorshift(state_);
        map_[r & kKeyMask] = r;
        const auto it = map_.lower_bound(r >> 50);
        if (it != map_.end())
            sink_ += it->second;
        if (i % 3 == 0)
            map_.erase((r >> 20) & kKeyMask);
    }
}

std::vector<double>
Calibration::pass()
{
    std::vector<double> times;
    times.reserve(kChunks);
    for (int c = 0; c < kChunks; ++c) {
        const uint64_t t0 = nowNs();
        chunk();
        times.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
    }
    // Keep the result observable so the kernel is not optimised away.
    if (sink_ == 42)
        std::abort();
    return times;
}

} // namespace perfbench

/**
 * @file
 * Host-speed calibration: a fixed kernel owned by the benchmark, timed
 * next to the workload in every round, so that run.py can state host
 * times at a reference host speed.
 *
 * On a shared host the speed of every core drifts with the load of
 * other tenants: the clock drops when the whole socket is busy, and
 * the last-level cache and memory are shared. Per-segment floors
 * remove sub-second noise but not a loaded period that covers a whole
 * run. The kernel mixes the kinds of work the simulator does (a
 * dependent integer chain, pointer chasing through a random cycle,
 * and inserts, erases and lookups in an ordered map) and is cut into
 * chunks of identical work that are timed with the same per-chunk
 * floor as the workload. It is part of the benchmark, not the program,
 * so a change to the program cannot move it.
 */
#ifndef PERFBENCH_CALIBRATE_HH_
#define PERFBENCH_CALIBRATE_HH_

#include <cstdint>
#include <map>
#include <memory_resource>
#include <vector>

namespace perfbench {

class Calibration
{
  public:
    /** Chunks per pass; each does the same fixed work. */
    static constexpr int kChunks = 64;

    /** Allocates and touches the kernel's working set. */
    Calibration();

    /** Runs one pass; returns each chunk's host seconds. */
    std::vector<double> pass();

    /** Resident MiB the working set added to the process. */
    double residentMib() const { return residentMib_; }

  private:
    void chunk();

    /** VmRSS before the working set existed. */
    double residentBefore_;
    /** Map nodes come from this arena, never from the program's heap. */
    std::vector<std::byte> arena_;
    std::pmr::monotonic_buffer_resource buffer_;
    std::pmr::unsynchronized_pool_resource pool_;
    std::pmr::map<uint64_t, uint64_t> map_;
    std::vector<uint32_t> chain_;
    uint64_t state_ = 0x9E3779B97F4A7C15ull;
    uint32_t cursor_ = 0;
    uint64_t sink_ = 0;
    double residentMib_ = 0.0;
};

/** Process resident set in MiB (VmRSS). */
double residentMib();

} // namespace perfbench

#endif // PERFBENCH_CALIBRATE_HH_

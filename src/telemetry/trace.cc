#include "telemetry/trace.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/logging.hh"

namespace chameleon {
namespace telemetry {

namespace {

const char *
trackName(int tid)
{
    switch (tid) {
      case kTrackScheduler:
        return "scheduler";
      case kTrackExecutor:
        return "executor";
      case kTrackRepairFlow:
        return "repair-flows";
      case kTrackForeground:
        return "foreground-flows";
      case kTrackMonitor:
        return "monitor";
      case kTrackSim:
        return "sim";
      case kTrackFault:
        return "fault";
      default:
        return "track";
    }
}

void
writeJsonString(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        switch (c) {
          case '"':
            os << "\\\"";
            break;
          case '\\':
            os << "\\\\";
            break;
          case '\n':
            os << "\\n";
            break;
          case '\t':
            os << "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

void
writeJsonNumber(std::ostream &os, double v)
{
    if (!std::isfinite(v)) {
        os << "null";
        return;
    }
    if (v == std::floor(v) && std::abs(v) < 1e15) {
        os << static_cast<long long>(v);
        return;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    os << buf;
}

/** Seconds of simulated time -> Chrome-trace microseconds. */
double
toMicros(SimTime t)
{
    return t * 1e6;
}

void
writeArgs(std::ostream &os, const std::vector<TraceArg> &args)
{
    os << "{";
    bool first = true;
    for (const auto &a : args) {
        if (!first)
            os << ", ";
        first = false;
        writeJsonString(os, a.key);
        os << ": ";
        if (a.isString)
            writeJsonString(os, a.str);
        else
            writeJsonNumber(os, a.num);
    }
    os << "}";
}

void
writeEvent(std::ostream &os, const TraceEvent &ev)
{
    os << "{\"ph\": \"" << static_cast<char>(ev.phase)
       << "\", \"ts\": ";
    writeJsonNumber(os, toMicros(ev.ts));
    if (ev.phase == TraceEvent::Phase::kComplete) {
        os << ", \"dur\": ";
        writeJsonNumber(os, toMicros(ev.dur));
    }
    os << ", \"pid\": " << ev.pid << ", \"tid\": " << ev.tid;
    if (!ev.cat.empty()) {
        os << ", \"cat\": ";
        writeJsonString(os, ev.cat);
    }
    os << ", \"name\": ";
    writeJsonString(os, ev.name);
    if (!ev.args.empty()) {
        os << ", \"args\": ";
        writeArgs(os, ev.args);
    }
    os << "}";
}

void
writeMetaEvent(std::ostream &os, const char *name, int pid, int tid,
               const std::string &value)
{
    os << "{\"ph\": \"M\", \"pid\": " << pid << ", \"tid\": " << tid
       << ", \"name\": \"" << name << "\", \"args\": {\"name\": ";
    writeJsonString(os, value);
    os << "}}";
}

} // namespace

Tracer::Tracer(std::size_t capacity)
    : capacity_(capacity)
{
    CHAMELEON_ASSERT(capacity_ > 0, "tracer needs capacity");
    // No eager reserve: every RunTelemetry owns a Tracer, and most
    // runs never record an event.
    runNames_.push_back("run-0");
}

int
Tracer::beginRun(std::string name)
{
    // The initial pid 0 is claimed lazily: a beginRun before any
    // event simply names it instead of opening a second run.
    if (!events_.empty() || runNames_.size() > 1 ||
        runNames_[0] != "run-0") {
        ++pid_;
        runNames_.push_back(std::move(name));
    } else {
        runNames_[0] = std::move(name);
    }
    return pid_;
}

void
Tracer::push(TraceEvent ev)
{
    if (events_.size() < capacity_) {
        events_.push_back(std::move(ev));
        return;
    }
    full_ = true;
    events_[head_] = std::move(ev);
    head_ = (head_ + 1) % capacity_;
    ++dropped_;
}

void
Tracer::begin(SimTime ts, Track track, std::string cat,
              std::string name, std::initializer_list<TraceArg> args)
{
    TraceEvent ev;
    ev.phase = TraceEvent::Phase::kBegin;
    ev.ts = ts;
    ev.pid = pid_;
    ev.tid = track;
    ev.cat = std::move(cat);
    ev.name = std::move(name);
    ev.args.assign(args.begin(), args.end());
    push(std::move(ev));
}

void
Tracer::end(SimTime ts, Track track)
{
    TraceEvent ev;
    ev.phase = TraceEvent::Phase::kEnd;
    ev.ts = ts;
    ev.pid = pid_;
    ev.tid = track;
    push(std::move(ev));
}

void
Tracer::complete(SimTime ts, SimTime dur, Track track, std::string cat,
                 std::string name,
                 std::initializer_list<TraceArg> args)
{
    TraceEvent ev;
    ev.phase = TraceEvent::Phase::kComplete;
    ev.ts = ts;
    ev.dur = dur;
    ev.pid = pid_;
    ev.tid = track;
    ev.cat = std::move(cat);
    ev.name = std::move(name);
    ev.args.assign(args.begin(), args.end());
    push(std::move(ev));
}

void
Tracer::instant(SimTime ts, Track track, std::string cat,
                std::string name, std::initializer_list<TraceArg> args)
{
    TraceEvent ev;
    ev.phase = TraceEvent::Phase::kInstant;
    ev.ts = ts;
    ev.pid = pid_;
    ev.tid = track;
    ev.cat = std::move(cat);
    ev.name = std::move(name);
    ev.args.assign(args.begin(), args.end());
    push(std::move(ev));
}

void
Tracer::counter(SimTime ts, Track track, std::string name,
                std::initializer_list<TraceArg> series)
{
    TraceEvent ev;
    ev.phase = TraceEvent::Phase::kCounter;
    ev.ts = ts;
    ev.pid = pid_;
    ev.tid = track;
    ev.name = std::move(name);
    ev.args.assign(series.begin(), series.end());
    push(std::move(ev));
}

std::vector<TraceEvent>
Tracer::events() const
{
    std::vector<TraceEvent> out;
    out.reserve(events_.size());
    if (full_) {
        for (std::size_t i = head_; i < events_.size(); ++i)
            out.push_back(events_[i]);
        for (std::size_t i = 0; i < head_; ++i)
            out.push_back(events_[i]);
    } else {
        out = events_;
    }
    return out;
}

void
Tracer::clear()
{
    events_.clear();
    head_ = 0;
    full_ = false;
    dropped_ = 0;
}

void
Tracer::mergeFrom(const Tracer &other)
{
    const auto evs = other.events();
    // An untouched tracer contributes nothing (merging it must not
    // burn a pid on the anonymous "run-0").
    if (evs.empty() && other.dropped_ == 0 &&
        other.runNames_.size() == 1 && other.runNames_[0] == "run-0")
        return;
    std::vector<int> pidMap(other.runNames_.size(), 0);
    for (std::size_t p = 0; p < other.runNames_.size(); ++p) {
        // Mirror beginRun()'s lazy pid-0 claim so merging isolated
        // tracers in completion order reproduces the pid layout of
        // sequential runs sharing one tracer.
        if (p == 0 && events_.empty() && runNames_.size() == 1 &&
            runNames_[0] == "run-0") {
            runNames_[0] = other.runNames_[0];
            pidMap[0] = 0;
        } else {
            ++pid_;
            runNames_.push_back(other.runNames_[p]);
            pidMap[p] = pid_;
        }
    }
    for (const auto &ev : evs) {
        TraceEvent copy = ev;
        copy.pid = pidMap[static_cast<std::size_t>(ev.pid)];
        push(std::move(copy));
    }
    dropped_ += other.dropped_;
}

void
Tracer::writeChromeTrace(std::ostream &os) const
{
    auto evs = events();
    os << "{\"traceEvents\": [\n";
    bool first = true;
    // Name every (pid, tid) pair actually used plus the runs.
    std::vector<std::pair<int, int>> seen;
    for (const auto &ev : evs) {
        auto key = std::make_pair(ev.pid, ev.tid);
        if (std::find(seen.begin(), seen.end(), key) == seen.end())
            seen.push_back(key);
    }
    for (int p = 0; p <= pid_; ++p) {
        if (!first)
            os << ",\n";
        first = false;
        writeMetaEvent(os, "process_name", p, 0,
                       runNames_[static_cast<std::size_t>(p)]);
    }
    for (const auto &[p, t] : seen) {
        os << ",\n";
        writeMetaEvent(os, "thread_name", p, t, trackName(t));
    }
    for (const auto &ev : evs) {
        if (!first)
            os << ",\n";
        first = false;
        writeEvent(os, ev);
    }
    os << "\n]}\n";
}

void
Tracer::writeJsonl(std::ostream &os) const
{
    for (const auto &ev : events()) {
        writeEvent(os, ev);
        os << "\n";
    }
}

void
Tracer::writePhaseCsv(std::ostream &os) const
{
    os << "run,phase,start_s,end_s,duration_s,dispatches,stragglers,"
          "retunes,reorders\n";
    struct Row
    {
        int pid = 0;
        double phase = 0.0;
        SimTime start = 0.0;
        SimTime end = 0.0;
        int dispatches = 0;
        int stragglers = 0;
        int retunes = 0;
        int reorders = 0;
        bool open = true;
    };
    std::vector<Row> rows;
    // One scheduler track per run; spans do not nest on it, so the
    // last open row of a pid is the phase an instant belongs to.
    auto openRow = [&rows](int pid) -> Row * {
        for (auto it = rows.rbegin(); it != rows.rend(); ++it)
            if (it->pid == pid)
                return it->open ? &*it : nullptr;
        return nullptr;
    };
    for (const auto &ev : events()) {
        if (ev.tid != kTrackScheduler)
            continue;
        if (ev.phase == TraceEvent::Phase::kBegin &&
            ev.name == "phase") {
            Row row;
            row.pid = ev.pid;
            row.start = row.end = ev.ts;
            for (const auto &a : ev.args)
                if (a.key == "index")
                    row.phase = a.num;
            rows.push_back(row);
        } else if (ev.phase == TraceEvent::Phase::kEnd) {
            if (Row *row = openRow(ev.pid)) {
                row->end = ev.ts;
                row->open = false;
            }
        } else if (ev.phase == TraceEvent::Phase::kInstant) {
            Row *row = openRow(ev.pid);
            if (!row)
                continue;
            row->end = std::max(row->end, ev.ts);
            if (ev.name == "dispatch")
                ++row->dispatches;
            else if (ev.name == "straggler")
                ++row->stragglers;
            else if (ev.name == "retune")
                ++row->retunes;
            else if (ev.name == "reorder")
                ++row->reorders;
        }
    }
    for (const auto &row : rows) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "%d,%.0f,%.3f,%.3f,%.3f,%d,%d,%d,%d\n", row.pid,
                      row.phase, row.start, row.end,
                      row.end - row.start, row.dispatches,
                      row.stragglers, row.retunes, row.reorders);
        os << buf;
    }
}

} // namespace telemetry
} // namespace chameleon

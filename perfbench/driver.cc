/**
 * @file
 * Benchmark driver: runs one workload's generated inputs through the
 * program's public API for a fixed host-time budget and prints one
 * JSON report on stdout. run.py generates the inputs, runs this
 * driver and the cross-checks, and turns the report into metrics.
 *
 *   perfbench-driver sim   [--seconds S] [--spans-out FILE] SCENARIO.json...
 *   perfbench-driver codec [--seconds S] [--spans-out FILE] CODEC.json
 *   perfbench-driver once  SCENARIO.json
 *
 * sim: each round parses every scenario (ScenarioSpec::fromJson),
 * builds a Runtime with isolated telemetry and runs it. Rounds repeat
 * the same inputs until another round would overrun S host seconds
 * (at least kMinRounds rounds). Set-up is parse + toConfig + Runtime
 * construction + the part of Runtime::run before simulated time first
 * advances (stripe placement included); run is the rest of
 * Runtime::run. Checks:
 *  - the chunks repaired (plus unrecoverable) equal the chunks the
 *    failures declared lost, and the node-0 loss equals the hosted
 *    set derived independently from the seed, as bench/fig_scale.cc
 *    derives it;
 *  - sim.flows.active == 0 and started == completed + cancelled;
 *  - every round reproduces round 0's ExperimentResult and counters.
 *
 * codec: encodes seeded random stripes with each listed code, then
 * rebuilds erased chunks through the ErasureCode calls
 * (repairIndices + specFor + repairCompute for single losses, decode
 * for patterns of guaranteedRepairableCount() chunks) and checks each
 * rebuilt chunk byte for byte and by CRC32C against the original.
 * Set-up is code construction and data generation; run is the whole
 * encode/erase/repair/verify pass.
 *
 * once: one run of one scenario, reporting the result row and the
 * simulated metrics (the reference-solver differential).
 *
 * sim and codec start every round with a calibration pass
 * (calibrate.hh) and report its chunk times, so that run.py can state
 * host times at a reference host speed.
 *
 * Exit code 0 when every check passed, 1 when one failed, 2 on bad
 * usage or input.
 */

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sched.h>
#include <sstream>
#include <string>
#include <vector>

#include "calibrate.hh"
#include "cluster/stripe_manager.hh"
#include "ec/checksum.hh"
#include "ec/code.hh"
#include "gf/gf256.hh"
#include "runtime/runtime.hh"
#include "runtime/scenario.hh"
#include "spans.hh"
#include "telemetry/json.hh"
#include "util/rng.hh"

namespace {

using namespace chameleon;
using perfbench::Span;
using perfbench::SpanScope;

// ---------------------------------------------------------------- output

/** Minimal JSON writer: full-precision numbers, escaped strings. */
class Json
{
  public:
    Json &raw(const std::string &s)
    {
        sep();
        out_ += s;
        return *this;
    }
    Json &key(const std::string &k)
    {
        sep();
        out_ += quote(k) + ":";
        fresh_ = true;
        return *this;
    }
    Json &num(double v)
    {
        char buf[40];
        if (!std::isfinite(v))
            std::snprintf(buf, sizeof(buf), "null");
        else
            std::snprintf(buf, sizeof(buf), "%.17g", v);
        return raw(buf);
    }
    Json &str(const std::string &s) { return raw(quote(s)); }
    Json &boolean(bool b) { return raw(b ? "true" : "false"); }
    Json &open(char c)
    {
        sep();
        out_ += c;
        fresh_ = true;
        return *this;
    }
    Json &close(char c)
    {
        out_ += c;
        fresh_ = false;
        return *this;
    }
    Json &field(const std::string &k, double v) { return key(k).num(v); }
    Json &field(const std::string &k, const std::string &v)
    {
        return key(k).str(v);
    }
    const std::string &text() const { return out_; }

  private:
    void sep()
    {
        if (!fresh_ && !out_.empty())
            out_ += ',';
        fresh_ = false;
    }
    static std::string quote(const std::string &s)
    {
        std::string q = "\"";
        for (char c : s) {
            if (c == '"' || c == '\\') {
                q += '\\';
                q += c;
            } else if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                q += buf;
            } else {
                q += c;
            }
        }
        return q + "\"";
    }

    std::string out_;
    bool fresh_ = true;
};

struct Check
{
    std::string name;
    bool ok = true;
    std::string detail;
};

struct Checks
{
    std::vector<Check> list;

    void add(const std::string &name, bool ok,
             const std::string &detail = "")
    {
        // One entry per check name; a failure sticks.
        for (Check &c : list) {
            if (c.name == name) {
                if (c.ok && !ok) {
                    c.ok = false;
                    c.detail = detail;
                }
                return;
            }
        }
        list.push_back({name, ok, ok ? "" : detail});
    }
    bool allOk() const
    {
        return std::all_of(list.begin(), list.end(),
                           [](const Check &c) { return c.ok; });
    }
    void write(Json &j) const
    {
        j.key("checks").open('[');
        for (const Check &c : list) {
            j.open('{').field("name", c.name).key("ok").boolean(c.ok);
            j.field("detail", c.detail).close('}');
        }
        j.close(']');
    }
};

[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "perfbench-driver: %s\n", msg.c_str());
    std::exit(2);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        die("cannot read " + path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

double
seconds(uint64_t from_ns, uint64_t to_ns)
{
    return static_cast<double>(to_ns - from_ns) * 1e-9;
}

/** Process peak RSS in MiB (VmHWM). */
double
peakRssMib()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

void
writeSeries(Json &j, const std::string &name,
            const std::vector<double> &values)
{
    if (name.empty())
        j.open('[');
    else
        j.key(name).open('[');
    for (double v : values)
        j.num(v);
    j.close(']');
}

/** Each round's calibration chunk times, and the kernel's resident
 * size (already taken out of peak_rss_mib). */
void
writeCalibration(Json &j, const perfbench::Calibration &calibrate,
                 const std::vector<std::vector<double>> &rounds)
{
    j.field("calibration_rss_mib", calibrate.residentMib());
    j.key("calibration_s").open('[');
    for (const auto &round : rounds)
        writeSeries(j, "", round);
    j.close(']');
}

void
writeSpanTotals(Json &j)
{
    j.key("spans").open('{');
    for (int s = 0; s < static_cast<int>(Span::kCount); ++s) {
        const auto span = static_cast<Span>(s);
        const perfbench::SpanTotals &t = perfbench::spanTotals(span);
        j.key(perfbench::spanName(span)).open('{');
        j.field("module", perfbench::spanModule(span));
        j.field("calls", static_cast<double>(t.calls));
        j.field("total_s", static_cast<double>(t.totalNs) * 1e-9);
        j.field("self_s", static_cast<double>(t.selfNs) * 1e-9);
        j.close('}');
    }
    j.close('}');
    j.field("spans_logged", static_cast<double>(perfbench::spansLogged()));
    j.field("spans_dropped",
            static_cast<double>(perfbench::spansDropped()));
}

bool
writeSpanLog(const std::string &path)
{
    if (path.empty())
        return true;
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const bool ok = perfbench::writeSpans(f);
    return std::fclose(f) == 0 && ok;
}

// ------------------------------------------------------------ sim mode

/** The result row chameleon-sim prints for one experiment, built from
 * the same values and format (tools/chameleon_sim.cpp). */
std::string
resultRow(const runtime::ScenarioSpec &spec,
          const runtime::ExperimentResult &r)
{
    std::string row;
    char buf[256];
    auto add = [&](const char *fmt, auto... args) {
        std::snprintf(buf, sizeof(buf), fmt, args...);
        row += buf;
    };
    add("%-14s repair %7.1f MB/s in %7.1f s",
        runtime::algorithmName(r.algorithm).c_str(),
        r.repairThroughput / 1e6, r.repairTime);
    if (spec.trace != "none" && !spec.trace.empty())
        add("   P99 %8.1f ms", r.p99LatencyMs);
    if (r.phases)
        add("   phases %.0f retunes %.0f reorders %.0f",
            static_cast<double>(r.phases), static_cast<double>(r.retunes),
            static_cast<double>(r.reorders));
    if (r.faultsInjected)
        add("   faults %.0f replans %.0f unrecoverable %.0f",
            static_cast<double>(r.faultsInjected),
            static_cast<double>(r.crashReplans),
            static_cast<double>(r.chunksUnrecoverable));
    if (spec.scrub.enabled)
        add("   rot %.0f/%.0f detected, %.0f re-repaired",
            static_cast<double>(r.corruptionsDetected),
            static_cast<double>(r.corruptionsInjected),
            static_cast<double>(r.corruptionsRepaired));
    if (spec.degraded.enabled)
        add("   degraded P99 %8.1f ms, hedges %.0f won %.0f",
            r.degradedLatency.p99 * 1e3,
            static_cast<double>(r.hedgesIssued),
            static_cast<double>(r.hedgeWins));
    return row;
}

void
writeResult(Json &j, const runtime::ExperimentResult &r)
{
    j.key("result").open('{');
    j.field("algorithm", runtime::algorithmKey(r.algorithm));
    j.field("repair_mbps", r.repairThroughput / 1e6);
    j.field("repair_time_s", r.repairTime);
    j.field("chunks", r.chunksRepaired);
    j.field("unrecoverable", r.chunksUnrecoverable);
    j.field("crash_replans", r.crashReplans);
    j.field("faults_injected", r.faultsInjected);
    j.field("p99_ms", r.p99LatencyMs);
    j.field("mean_ms", r.meanLatencyMs);
    j.field("p50_ms", r.latency.p50 * 1e3);
    j.field("latency_count", static_cast<double>(r.latency.count));
    j.field("phases", r.phases);
    j.field("retunes", r.retunes);
    j.field("reorders", r.reorders);
    j.close('}');
}

using Counters = std::map<std::string, double>;

/** Numeric view of a run's metrics registry; histograms expand to
 * .count/.mean/.p50/.p99. */
Counters
countersOf(const telemetry::MetricsSnapshot &snap)
{
    Counters out;
    for (const auto &s : snap.samples) {
        if (s.kind == telemetry::MetricSample::Kind::kHistogram) {
            out[s.name + ".count"] = static_cast<double>(s.count);
            out[s.name + ".mean"] =
                s.count ? s.sum / static_cast<double>(s.count) : 0.0;
            out[s.name + ".p50"] = s.p50;
            out[s.name + ".p99"] = s.p99;
        } else {
            out[s.name] = s.value;
        }
    }
    return out;
}

std::string
firstCounterDiff(const Counters &a, const Counters &b)
{
    for (const auto &[name, v] : a) {
        auto it = b.find(name);
        if (it == b.end() || !(it->second == v))
            return name;
    }
    for (const auto &[name, v] : b)
        if (!a.count(name))
            return name;
    return "";
}

/** The chunks failing node 0 loses, derived from the seed exactly as
 * the runtime places stripes (Rng(seed).split() feeds placement). */
struct HostedSet
{
    std::vector<cluster::FailedChunk> chunks;
    long long stripes = 0;
    double bytesPerStripe = 0.0;
};

HostedSet
deriveHostedSet(const runtime::ScenarioSpec &spec)
{
    const runtime::ExperimentConfig cfg = spec.toConfig();
    Rng rng(cfg.seed);
    Rng placement = rng.split();
    cluster::StripeManager stripes(cfg.code, cfg.cluster.numNodes);
    if (cfg.stripes > 0) {
        stripes.createStripes(cfg.stripes, placement);
    } else {
        while (static_cast<int>(stripes.chunksOnNode(0).size()) <
               cfg.chunksToRepair)
            stripes.createStripes(1, placement);
    }
    HostedSet h;
    h.chunks = stripes.chunksOnNode(0);
    h.stripes = static_cast<long long>(stripes.stripeCount());
    h.bytesPerStripe = h.stripes
                           ? static_cast<double>(
                                 stripes.table().memoryBytes()) /
                                 static_cast<double>(h.stripes)
                           : 0.0;
    return h;
}

bool
sameChunkSet(std::vector<cluster::FailedChunk> a,
             std::vector<cluster::FailedChunk> b)
{
    auto less = [](const cluster::FailedChunk &x,
                   const cluster::FailedChunk &y) {
        return x.stripe != y.stripe ? x.stripe < y.stripe
                                    : x.chunk < y.chunk;
    };
    std::sort(a.begin(), a.end(), less);
    std::sort(b.begin(), b.end(), less);
    return a == b;
}

struct InstanceRun
{
    runtime::ExperimentResult result;
    Counters counters;
    /** Host seconds between consecutive marks: set-up (start to the
     * first Simulator::run), then alternating Simulator::run calls
     * and the runtime work between them, then the tail to return. */
    std::vector<double> segments;
    std::vector<perfbench::NodeLoss> losses;
};

InstanceRun
runInstance(const std::string &text, uint32_t run_id)
{
    perfbench::setRunId(run_id);
    InstanceRun out;
    const uint64_t t0 = perfbench::nowNs();
    perfbench::clearSimMarks();
    std::string err;
    const auto spec = runtime::ScenarioSpec::fromJson(text, &err);
    if (!spec)
        die("bad scenario: " + err);
    runtime::RuntimeOptions opts;
    opts.isolateTelemetry = true;
    runtime::Runtime rt(*spec, opts);
    perfbench::clearLosses();
    {
        SpanScope span(Span::kRuntimeRun);
        out.result = rt.run();
    }
    const uint64_t t1 = perfbench::nowNs();
    const std::vector<uint64_t> &marks = perfbench::simMarks();
    if (marks.empty())
        die("simulated time never advanced (Simulator::run hook not "
            "reached)");
    uint64_t prev = t0;
    for (uint64_t mark : marks) {
        out.segments.push_back(seconds(prev, mark));
        prev = mark;
    }
    out.segments.push_back(seconds(prev, t1));
    out.counters = countersOf(rt.runTelemetry()->metrics.snapshot());
    out.losses = perfbench::losses();
    return out;
}

/** Rounds every run makes, whatever its budget: round 0 is the
 * reference the others must reproduce. */
constexpr int kMinRounds = 3;

struct Options
{
    double seconds = 10.0;
    std::string spansOut;
    std::vector<std::string> inputs;
};

Options
parseOptions(int argc, char **argv, int first)
{
    Options o;
    for (int i = first; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                die(a + " needs a value");
            return argv[++i];
        };
        if (a == "--seconds")
            o.seconds = std::stod(value());
        else if (a == "--spans-out")
            o.spansOut = value();
        else if (a.rfind("--", 0) == 0)
            die("unknown flag " + a);
        else
            o.inputs.push_back(a);
    }
    if (o.inputs.empty())
        die("no input files");
    return o;
}

/**
 * Moves the process to the next CPU it may run on, round-robin over
 * the affinity mask it started with. On a shared host one CPU can run
 * slowly for seconds to minutes at a time (another tenant on the same
 * core) while others run at full speed; rotating the CPU each round
 * lets the per-segment floor find full-speed rounds. The workload
 * stays single-threaded and never runs on two CPUs at once.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        cpu_set_t mask;
        CPU_ZERO(&mask);
        if (sched_getaffinity(0, sizeof(mask), &mask) == 0)
            for (int c = 0; c < CPU_SETSIZE; ++c)
                if (CPU_ISSET(c, &mask))
                    cpus_.push_back(c);
    }

    void next(int round)
    {
        if (cpus_.size() < 2)
            return;
        cpu_set_t mask;
        CPU_ZERO(&mask);
        CPU_SET(cpus_[static_cast<std::size_t>(round) % cpus_.size()],
                &mask);
        sched_setaffinity(0, sizeof(mask), &mask);
    }

  private:
    std::vector<int> cpus_;
};

/** True once kMinRounds ran and another round like the last one
 * would end past the time budget. */
bool
budgetSpent(const Options &o, int rounds, uint64_t start,
            uint64_t round_start)
{
    const uint64_t now = perfbench::nowNs();
    return rounds >= kMinRounds &&
           seconds(start, now) + seconds(round_start, now) > o.seconds;
}

void
writeProvenance(Json &j)
{
    j.key("provenance").open('{');
    j.field("gf_kernel", gf::kernelName());
    j.field("ec_kernel", ec::checksum::kernelName());
#if defined(__clang__)
    j.field("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
    j.field("compiler", std::string("gcc ") + __VERSION__);
#endif
    j.close('}');
}

int
simMain(const Options &o)
{
    std::vector<std::string> texts;
    std::vector<runtime::ScenarioSpec> specs;
    std::vector<HostedSet> hosted;
    for (const std::string &path : o.inputs) {
        texts.push_back(readFile(path));
        std::string err;
        auto spec = runtime::ScenarioSpec::fromJson(texts.back(), &err);
        if (!spec)
            die("bad scenario " + path + ": " + err);
        specs.push_back(*spec);
        hosted.push_back(deriveHostedSet(*spec));
    }
    // The derivation above runs the placement code outside any run.
    perfbench::resetSpans();

    Checks checks;
    std::vector<InstanceRun> first;
    // segments[i][round] holds instance i's segment times that round.
    std::vector<std::vector<std::vector<double>>> segments(texts.size());
    std::vector<std::vector<double>> calibration;
    int rounds = 0;
    CpuRotation cpus;
    perfbench::Calibration calibrate;
    const uint64_t start = perfbench::nowNs();
    for (int round = 0;; ++round) {
        cpus.next(round);
        const uint64_t round_start = perfbench::nowNs();
        calibration.push_back(calibrate.pass());
        for (std::size_t i = 0; i < texts.size(); ++i) {
            InstanceRun r = runInstance(
                texts[i], static_cast<uint32_t>(round * texts.size() + i));
            segments[i].push_back(r.segments);
            if (round == 0) {
                first.push_back(std::move(r));
                continue;
            }
            const InstanceRun &f = first[i];
            checks.add("repeat_segments_equal",
                       r.segments.size() == f.segments.size(),
                       o.inputs[i] + " round " + std::to_string(round));
            checks.add("repeat_result_equal", r.result == f.result,
                       o.inputs[i] + " round " + std::to_string(round));
            const std::string diff =
                firstCounterDiff(f.counters, r.counters);
            checks.add("repeat_counters_equal", diff.empty(),
                       o.inputs[i] + " round " + std::to_string(round) +
                           ": " + diff);
        }
        rounds = round + 1;
        if (budgetSpent(o, rounds, start, round_start))
            break;
    }

    long long attempted = 0, failed = 0;
    for (std::size_t i = 0; i < first.size(); ++i) {
        const InstanceRun &r = first[i];
        const std::string &in = o.inputs[i];
        const HostedSet &h = hosted[i];
        const long long done = r.result.chunksRepaired +
                               r.result.chunksUnrecoverable;
        long long lost = 0;
        if (r.losses.empty()) {
            // Deferred (scanner) discovery: node 0's hosted set is the
            // whole workload.
            lost = static_cast<long long>(h.chunks.size());
        } else {
            checks.add("node0_loss_is_hosted_set",
                       r.losses.front().node == 0 &&
                           sameChunkSet(r.losses.front().chunks, h.chunks),
                       in);
            for (const auto &l : r.losses)
                lost += static_cast<long long>(l.chunks.size());
        }
        checks.add("repaired_equals_lost", done == lost,
                   in + ": repaired+unrecoverable " +
                       std::to_string(done) + " vs lost " +
                       std::to_string(lost));
        auto c = [&](const char *name) {
            auto it = r.counters.find(name);
            return it == r.counters.end() ? 0.0 : it->second;
        };
        checks.add("flows_drained", c("sim.flows.active") == 0.0,
                   in + ": sim.flows.active " +
                       std::to_string(c("sim.flows.active")));
        checks.add("flows_balanced",
                   c("sim.flows.started") ==
                       c("sim.flows.completed") + c("sim.flows.cancelled"),
                   in);
        attempted += lost;
        failed += r.result.chunksUnrecoverable + (done == lost ? 0
                                                  : std::llabs(lost - done));
    }

    Json j;
    j.open('{');
    j.field("mode", "sim");
    j.field("rounds", rounds);
    j.field("peak_rss_mib", peakRssMib() - calibrate.residentMib());
    writeCalibration(j, calibrate, calibration);
    j.field("attempted", static_cast<double>(attempted));
    j.field("failed", static_cast<double>(failed));
    j.key("instances").open('[');
    for (std::size_t i = 0; i < first.size(); ++i) {
        const InstanceRun &r = first[i];
        j.open('{');
        j.field("input", o.inputs[i]);
        j.field("row", resultRow(specs[i], r.result));
        j.key("segments_s").open('[');
        for (const auto &round_segments : segments[i])
            writeSeries(j, "", round_segments);
        j.close(']');
        writeResult(j, r.result);
        j.field("hosted_chunks", static_cast<double>(hosted[i].chunks.size()));
        j.field("stripes", static_cast<double>(hosted[i].stripes));
        j.field("bytes_per_stripe", hosted[i].bytesPerStripe);
        j.key("counters").open('{');
        for (const auto &[name, v] : r.counters)
            j.field(name, v);
        j.close('}');
        j.close('}');
    }
    j.close(']');
    checks.write(j);
    writeProvenance(j);
    writeSpanTotals(j);
    j.close('}');
    std::printf("%s\n", j.text().c_str());
    if (!writeSpanLog(o.spansOut))
        die("cannot write " + o.spansOut);
    return checks.allOk() ? 0 : 1;
}

int
onceMain(const std::string &path)
{
    const std::string text = readFile(path);
    std::string err;
    const auto spec = runtime::ScenarioSpec::fromJson(text, &err);
    if (!spec)
        die("bad scenario " + path + ": " + err);
    const InstanceRun r = runInstance(text, 0);
    Json j;
    j.open('{');
    j.field("mode", "once");
    j.field("row", resultRow(*spec, r.result));
    writeResult(j, r.result);
    j.close('}');
    std::printf("%s\n", j.text().c_str());
    return 0;
}

// ---------------------------------------------------------- codec mode

struct CodecConfig
{
    std::vector<std::string> codes;
    int stripes = 0;
    std::size_t chunkBytes = 0;
    int singleLossesPerStripe = 0;
    uint64_t seed = 0;
};

CodecConfig
parseCodecConfig(const std::string &text)
{
    const auto v = telemetry::parseJson(text);
    if (!v || !v->isObject())
        die("codec config is not a JSON object");
    CodecConfig c;
    if (const auto *codes = v->find("codes"); codes && codes->isArray())
        for (const auto &s : codes->array)
            c.codes.push_back(s.string);
    c.stripes = static_cast<int>(v->numberOr("stripes_per_code", 0));
    c.chunkBytes =
        static_cast<std::size_t>(v->numberOr("chunk_bytes", 0));
    c.singleLossesPerStripe =
        static_cast<int>(v->numberOr("single_losses_per_stripe", 0));
    c.seed = static_cast<uint64_t>(v->numberOr("seed", 0));
    if (c.codes.empty() || c.stripes < 1 || c.chunkBytes < 64 ||
        c.chunkBytes % 64 != 0 || c.singleLossesPerStripe < 1)
        die("codec config needs codes, stripes_per_code >= 1, "
            "chunk_bytes (multiple of 64) and "
            "single_losses_per_stripe >= 1");
    return c;
}

/** One code's seeded stripes and the erasures to rebuild. */
struct CodecCase
{
    std::shared_ptr<const ec::ErasureCode> code;
    /** data[s] holds stripe s's k data chunks. */
    std::vector<std::vector<ec::Buffer>> data;
    /** Single-chunk losses per stripe, then one decode pattern. */
    std::vector<std::vector<ChunkIndex>> singles;
    std::vector<std::vector<ChunkIndex>> patterns;
};

std::vector<ChunkIndex>
distinctIndices(Rng &rng, int n, int count)
{
    std::vector<ChunkIndex> all(n);
    for (int i = 0; i < n; ++i)
        all[i] = i;
    for (int i = 0; i < count; ++i)
        std::swap(all[i], all[i + static_cast<int>(rng.below(n - i))]);
    all.resize(count);
    std::sort(all.begin(), all.end());
    return all;
}

std::vector<CodecCase>
buildCodecCases(const CodecConfig &cfg)
{
    Rng rng(cfg.seed);
    std::vector<CodecCase> cases;
    for (const std::string &spec : cfg.codes) {
        std::string err;
        auto code = runtime::tryParseCode(spec, &err);
        if (!code)
            die("bad code " + spec + ": " + err);
        CodecCase c;
        c.code = *code;
        const int k = c.code->k(), n = c.code->n();
        const int g = c.code->guaranteedRepairableCount();
        if (cfg.singleLossesPerStripe > n)
            die("single_losses_per_stripe exceeds the stripe width of " +
                spec);
        for (int s = 0; s < cfg.stripes; ++s) {
            std::vector<ec::Buffer> stripe(k, ec::Buffer(cfg.chunkBytes));
            for (auto &chunk : stripe) {
                for (std::size_t b = 0; b < chunk.size(); b += 8) {
                    const uint64_t word = rng.next();
                    std::memcpy(chunk.data() + b, &word, 8);
                }
            }
            c.data.push_back(std::move(stripe));
            c.singles.push_back(
                distinctIndices(rng, n, cfg.singleLossesPerStripe));
            c.patterns.push_back(distinctIndices(rng, n, g));
        }
        cases.push_back(std::move(c));
    }
    return cases;
}

struct CodecPass
{
    double bytesEncoded = 0.0;
    double bytesRebuilt = 0.0;
    double helperBytes = 0.0;
    double singleBytes = 0.0;
    long long rebuilt = 0;
    long long rebuildFailed = 0;
    /** Host seconds per stripe (encode, repairs, decode, verify). */
    std::vector<double> segments;
    /** Host seconds per encode, single-chunk repair and decode call,
     * in the same order every pass. */
    std::vector<double> encodeOps;
    std::vector<double> repairOps;
    std::vector<double> decodeOps;
};

template <typename F>
double
timed(Span span, F &&fn)
{
    const uint64_t t0 = perfbench::nowNs();
    {
        SpanScope scope(span);
        fn();
    }
    return seconds(t0, perfbench::nowNs());
}

/** Verifies one rebuilt chunk against the original, bytes and CRC. */
bool
verifyChunk(const ec::Buffer &rebuilt, const ec::Buffer &original)
{
    SpanScope span(Span::kCrc32c);
    return rebuilt == original &&
           ec::checksum::crc32c(rebuilt.data(), rebuilt.size()) ==
               ec::checksum::crc32c(original.data(), original.size());
}

CodecPass
codecPass(const std::vector<CodecCase> &cases)
{
    CodecPass pass;
    for (const CodecCase &c : cases) {
        const int k = c.code->k();
        for (std::size_t s = 0; s < c.data.size(); ++s) {
            const uint64_t segment_start = perfbench::nowNs();
            std::vector<ec::Buffer> parity;
            const double encode_s = timed(
                Span::kEcEncode, [&] { parity = c.code->encode(c.data[s]); });
            pass.encodeOps.push_back(encode_s);
            std::vector<ec::Buffer> stripe = c.data[s];
            for (auto &p : parity)
                stripe.push_back(std::move(p));
            pass.bytesEncoded +=
                static_cast<double>(k) * static_cast<double>(stripe[0].size());

            // Single losses: minimal helper set, then reconstruct.
            // Gathering helper copies for the call is not timed.
            for (ChunkIndex lost : c.singles[s]) {
                std::optional<std::vector<ChunkIndex>> helpers;
                std::optional<ec::RepairSpec> spec;
                double dt = timed(Span::kEcRepairIndices, [&] {
                    const ChunkIndex erased[] = {lost};
                    helpers = c.code->repairIndices(erased);
                    if (helpers)
                        spec = c.code->specFor(lost, *helpers);
                });
                ec::Buffer out;
                if (spec) {
                    std::vector<ec::Buffer> helper_data;
                    for (const auto &read : spec->reads) {
                        helper_data.push_back(stripe[read.helper]);
                        pass.helperBytes +=
                            read.fraction *
                            static_cast<double>(stripe[0].size());
                    }
                    dt += timed(Span::kEcRepair, [&] {
                        out = c.code->repairCompute(*spec, helper_data);
                    });
                }
                pass.repairOps.push_back(dt);
                ++pass.rebuilt;
                pass.singleBytes += static_cast<double>(stripe[0].size());
                pass.bytesRebuilt += static_cast<double>(stripe[0].size());
                if (!spec || !verifyChunk(out, stripe[lost]))
                    ++pass.rebuildFailed;
            }

            // Multi-chunk pattern through decode.
            const auto &pattern = c.patterns[s];
            std::vector<ec::Buffer> damaged = stripe;
            for (ChunkIndex e : pattern)
                damaged[e].clear();
            bool decoded = false;
            pass.decodeOps.push_back(timed(
                Span::kEcDecode, [&] { decoded = c.code->decode(damaged); }));
            for (ChunkIndex e : pattern) {
                ++pass.rebuilt;
                pass.bytesRebuilt += static_cast<double>(stripe[0].size());
                if (!decoded || !verifyChunk(damaged[e], stripe[e]))
                    ++pass.rebuildFailed;
            }
            pass.segments.push_back(
                seconds(segment_start, perfbench::nowNs()));
        }
    }
    return pass;
}

int
codecMain(const Options &o)
{
    if (o.inputs.size() != 1)
        die("codec mode takes one config file");
    const std::string text = readFile(o.inputs[0]);
    perfbench::resetSpans();

    Checks checks;
    std::vector<double> round_setup;
    std::vector<std::vector<double>> round_segments, round_encode,
        round_repair, round_decode;
    CodecPass first;
    std::vector<std::vector<double>> calibration;
    Counters first_gf;
    CpuRotation cpus;
    perfbench::Calibration calibrate;
    const uint64_t start = perfbench::nowNs();
    for (int round = 0;; ++round) {
        cpus.next(round);
        calibration.push_back(calibrate.pass());
        perfbench::setRunId(static_cast<uint32_t>(round));
        const uint64_t t0 = perfbench::nowNs();
        const CodecConfig cfg = parseCodecConfig(text);
        const std::vector<CodecCase> cases = buildCodecCases(cfg);
        const uint64_t t1 = perfbench::nowNs();
        const auto gf_before =
            countersOf(telemetry::processMetrics().snapshot());
        CodecPass pass = codecPass(cases);
        // gf byte counters are process-wide; keep this pass's delta.
        Counters gf;
        for (const auto &[name, v] :
             countersOf(telemetry::processMetrics().snapshot())) {
            if (name.rfind("gf.bytes.", 0) == 0) {
                auto it = gf_before.find(name);
                gf[name] = v - (it == gf_before.end() ? 0.0 : it->second);
            }
        }
        round_setup.push_back(seconds(t0, t1));
        round_segments.push_back(pass.segments);
        round_encode.push_back(pass.encodeOps);
        round_repair.push_back(pass.repairOps);
        round_decode.push_back(pass.decodeOps);
        checks.add("rebuilt_chunks_verified", pass.rebuildFailed == 0,
                   std::to_string(pass.rebuildFailed) + " of " +
                       std::to_string(pass.rebuilt) + " failed");
        if (round == 0) {
            first = pass;
            first_gf = gf;
        } else {
            checks.add("repeat_counters_equal",
                       firstCounterDiff(first_gf, gf).empty() &&
                           pass.rebuilt == first.rebuilt,
                       "round " + std::to_string(round));
        }
        if (budgetSpent(o, round + 1, start, t0))
            break;
    }

    Json j;
    j.open('{');
    j.field("mode", "codec");
    j.field("rounds", static_cast<double>(round_setup.size()));
    writeSeries(j, "setup_s", round_setup);
    for (const auto &[name, series] :
         {std::pair{"segments_s", &round_segments},
          std::pair{"encode_ops_s", &round_encode},
          std::pair{"repair_ops_s", &round_repair},
          std::pair{"decode_ops_s", &round_decode}}) {
        j.key(name).open('[');
        for (const auto &values : *series)
            writeSeries(j, "", values);
        j.close(']');
    }
    j.field("bytes_encoded", first.bytesEncoded);
    j.field("bytes_rebuilt", first.bytesRebuilt);
    j.field("peak_rss_mib", peakRssMib() - calibrate.residentMib());
    writeCalibration(j, calibrate, calibration);
    j.field("attempted", static_cast<double>(first.rebuilt));
    j.field("failed", static_cast<double>(first.rebuildFailed));
    j.field("helper_bytes_per_repaired_byte",
            first.singleBytes > 0 ? first.helperBytes / first.singleBytes
                                  : 0.0);
    j.key("counters").open('{');
    for (const auto &[name, v] : first_gf)
        j.field(name, v);
    j.close('}');
    checks.write(j);
    writeProvenance(j);
    writeSpanTotals(j);
    j.close('}');
    std::printf("%s\n", j.text().c_str());
    if (!writeSpanLog(o.spansOut))
        die("cannot write " + o.spansOut);
    return checks.allOk() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        die("usage: perfbench-driver sim|codec|once [options] FILE...");
    const std::string mode = argv[1];
    if (mode == "once") {
        if (argc != 3)
            die("once mode takes one scenario file");
        return onceMain(argv[2]);
    }
    const Options o = parseOptions(argc, argv, 2);
    if (mode == "sim")
        return simMain(o);
    if (mode == "codec")
        return codecMain(o);
    die("unknown mode " + mode);
}

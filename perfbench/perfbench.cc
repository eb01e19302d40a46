/**
 * @file
 * hipster_perfbench: the repository benchmark's measuring program.
 *
 *   hipster_perfbench --workload node-memcached|fleet-mixed|sweep-grid
 *                     --seed N --seconds S --trace 0|1 [--spans PATH]
 *
 * Runs one workload through hipster_core's public API in a closed
 * loop (each run starts when the previous one ends) for S seconds,
 * checks every run's FNV-1a output fingerprint, and prints one JSON
 * record as its last line of standard output: raw samples, the
 * simulated outputs and, with --trace 1, the per-layer split of a
 * separately traced window. perfbench/run.py builds this program,
 * reduces the samples to medians and quartiles and prints the
 * metrics; perfbench/README.md defines every number.
 *
 * Tracing is the benchmark's own: spans recorded around each call
 * into a layer, kept in memory and written to --spans once at the
 * end. The simulator's telemetry axis stays "none" in every run.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/build_info.hh"
#include "common/json_number.hh"
#include "common/random.hh"
#include "core/policy.hh"
#include "experiments/experiment_spec.hh"
#include "experiments/sweep.hh"
#include "fleet/dispatcher_registry.hh"
#include "fleet/fleet.hh"
#include "loadgen/trace_registry.hh"
#include "migration/migration_registry.hh"
#include "workloads/workload_registry.hh"

namespace
{

using namespace hipster;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

/** Host seconds since the program started. */
double
now()
{
    return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

// ---------------------------------------------------------------
// Workload definitions. The pinned fingerprints hold for
// kDefaultSeed only; other seeds are checked for self-consistency.

constexpr std::uint64_t kDefaultSeed = 1;

const char kNodeWorkload[] = "memcached";
const char kNodePlatform[] = "juno";
const char kNodeTrace[] = "diurnal";
const char kNodePolicy[] = "hipster-in";

/** 256 nodes cycling juno, montecimone, hetero, juno. */
constexpr std::size_t kFleetNodes = 256;
const char *const kFleetCycle[] = {"juno", "montecimone", "hetero",
                                   "juno"};
const char kFleetWorkload[] = "websearch";
const char kFleetTrace[] = "diurnal";
const char kFleetDispatcher[] = "dispatch:cp-migrate";
const char kFleetMigration[] = "migrate:hexo";
const char kFleetHazard[] = "hazard:thermal+interference";
constexpr Seconds kFleetDuration = 600.0;

/** Worker threads of the sweep campaign (the host's core count). */
constexpr std::size_t kSweepJobs = 4;
constexpr std::size_t kSweepSeeds = 1;
constexpr double kSweepScale = 0.125;

/** Fingerprints of kDefaultSeed (sweep-grid: at jobs=1). */
constexpr std::uint64_t kPinNode = 0x6ff11064b42676cdULL;
constexpr std::uint64_t kPinFleet = 0xd666e465e4ab1127ULL;
constexpr std::uint64_t kPinSweep = 0x72cafc27ef704f80ULL;

// ---------------------------------------------------------------
// Output fingerprints, after tools/hipster_repin.

std::uint64_t
fnv1a(const void *data, std::size_t len, std::uint64_t hash)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

std::uint64_t
hashDouble(double value, std::uint64_t hash)
{
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    return fnv1a(&bits, sizeof(bits), hash);
}

std::uint64_t
hashU64(std::uint64_t value, std::uint64_t hash)
{
    return fnv1a(&value, sizeof(value), hash);
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/** Every field of every interval, in interval order. */
template <typename Series>
std::uint64_t
hashSeries(const Series &series, std::uint64_t h)
{
    for (std::size_t i = 0; i < series.size(); ++i) {
        const IntervalMetrics m = series[i];
        h = hashDouble(m.begin, h);
        h = hashDouble(m.end, h);
        h = hashDouble(m.offeredLoad, h);
        h = hashDouble(m.offeredRate, h);
        h = hashU64(static_cast<std::uint64_t>(m.loadBucket), h);
        h = hashDouble(m.tailLatency, h);
        h = hashDouble(m.qosTarget, h);
        h = hashDouble(m.throughput, h);
        h = hashDouble(m.power, h);
        h = hashDouble(m.energy, h);
        h = hashDouble(m.batchBigIps, h);
        h = hashDouble(m.batchSmallIps, h);
        h = hashU64(m.batchPresent ? 1 : 0, h);
        h = hashU64(m.ipsValid ? 1 : 0, h);
        h = hashU64(m.config.nBig, h);
        h = hashU64(m.config.nSmall, h);
        h = hashDouble(m.config.bigFreq, h);
        h = hashDouble(m.config.smallFreq, h);
        h = hashU64(m.migrations, h);
        h = hashU64(m.dvfsTransitions, h);
        h = hashDouble(m.lcUtilization, h);
        h = hashU64(m.dropped, h);
    }
    return h;
}

std::uint64_t
fleetFingerprint(const FleetResult &result)
{
    std::uint64_t h = hashSeries(result.fleetSeries, kFnvBasis);
    for (const FleetNodeResult &node : result.nodes)
        h = hashSeries(node.result.series, h);
    const MigrationTotals &m = result.summary.migration;
    h = hashU64(m.moves, h);
    h = hashDouble(m.meanInFlightShare, h);
    h = hashDouble(m.transitLoad, h);
    h = hashDouble(m.surgeLoad, h);
    h = hashDouble(m.blankedLoad, h);
    return hashDouble(m.energy, h);
}

std::uint64_t
sweepFingerprint(const SweepResults &results)
{
    std::uint64_t h = kFnvBasis;
    for (const SweepRun &run : results.runs)
        h = hashSeries(run.result.series, h);
    return h;
}

std::string
hex(std::uint64_t value)
{
    char text[32];
    std::snprintf(text, sizeof(text), "0x%016" PRIx64, value);
    return text;
}

// ---------------------------------------------------------------
// Spans: name, start, end, parent, and the id of the run they belong
// to. A span of `width` w owns w threads for its duration (the sweep
// campaign span owns the pool); its self time is w x duration minus
// its children's durations.

struct Span
{
    std::uint64_t run = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = root
    const char *name = "";
    double start = 0.0;
    double end = 0.0;
    double width = 1.0;
};

std::atomic<std::uint64_t> nextSpanId{1};
std::atomic<std::uint64_t> nextRunId{1};

/** One thread's spans; open/close nest like a call stack. */
class SpanRecorder
{
  public:
    SpanRecorder(std::uint64_t run, std::uint64_t parent)
        : run_(run), rootParent_(parent)
    {
    }

    std::uint64_t
    open(const char *name, double width = 1.0)
    {
        Span span;
        span.run = run_;
        span.id = nextSpanId++;
        span.parent = open_.empty() ? rootParent_ : spans_[open_.back()].id;
        span.name = name;
        span.width = width;
        span.start = now();
        open_.push_back(spans_.size());
        spans_.push_back(span);
        return span.id;
    }

    void
    close()
    {
        spans_[open_.back()].end = now();
        open_.pop_back();
    }

    std::vector<Span> &spans() { return spans_; }

  private:
    std::uint64_t run_;
    std::uint64_t rootParent_;
    std::vector<Span> spans_;
    std::vector<std::size_t> open_;
};

/** RAII span on an optional recorder (nullptr = untraced). */
class Scoped
{
  public:
    Scoped(SpanRecorder *rec, const char *name) : rec_(rec)
    {
        if (rec_)
            rec_->open(name);
    }
    ~Scoped()
    {
        if (rec_)
            rec_->close();
    }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

  private:
    SpanRecorder *rec_;
};

/**
 * Forwards every call to the wrapped policy and records a
 * core.decide span around initialDecision/decide. Observation only:
 * the decisions are the wrapped policy's own.
 */
class TimedPolicy : public TaskPolicy
{
  public:
    TimedPolicy(TaskPolicy &inner, SpanRecorder &rec)
        : inner_(inner), rec_(rec)
    {
    }

    std::string name() const override { return inner_.name(); }

    Decision
    initialDecision() override
    {
        Scoped span(&rec_, "core.decide");
        ++calls_;
        return inner_.initialDecision();
    }

    Decision
    decide(const IntervalMetrics &last) override
    {
        Scoped span(&rec_, "core.decide");
        ++calls_;
        return inner_.decide(last);
    }

    void reset() override { inner_.reset(); }

    std::uint64_t calls() const { return calls_; }

  private:
    TaskPolicy &inner_;
    SpanRecorder &rec_;
    std::uint64_t calls_ = 0;
};

/** Host time the runner's phase profile moved out of a span's layer
 * bucket into a finer one (spans cannot see inside stepNext). */
struct Charge
{
    const char *from;
    const char *to;
    double seconds;
};

/** What a traced window collected. */
struct TraceLog
{
    std::vector<Span> spans;
    std::vector<Charge> charges;
    std::vector<double> stepSeconds; ///< per stepNext (or per node)
    std::uint64_t decideCalls = 0;
    std::uint64_t simEvents = 0;
    std::uint64_t nodeIntervals = 0;
    std::uint64_t moves = 0;
    double nodeStepSeconds = 0.0; ///< sum of PhaseProfile totals
    std::size_t iterations = 0;

    void
    absorb(SpanRecorder &rec)
    {
        spans.insert(spans.end(), rec.spans().begin(), rec.spans().end());
        rec.spans().clear();
    }

    /** Charge a run's phase profile out of bucket `from`. */
    void
    chargeProfile(const PhaseProfile &p, const char *from,
                  bool includePolicy)
    {
        charges.push_back({from, "loadgen.arrival", p.arrivalGenSeconds});
        charges.push_back({from, "sim.event_loop", p.eventLoopSeconds});
        charges.push_back({from, "experiments.metrics", p.metricsSeconds});
        if (includePolicy)
            charges.push_back({from, "core.decide", p.policySeconds});
        nodeStepSeconds += p.totalSeconds();
        simEvents += p.simEvents;
        nodeIntervals += p.intervals;
    }
};

/** Bucket each span's self time is charged to. */
const char *
bucketOf(const std::string &name)
{
    static const std::map<std::string, const char *> buckets = {
        {"bench.iteration", "bench.self"},
        {"sweep.job", "bench.self"},
        {"experiments.validate", "setup.validate"},
        {"experiments.make_runner", "setup.make_runner"},
        {"core.make_policy", "setup.make_policy"},
        {"experiments.begin_run", "setup.begin_run"},
        {"experiments.step", "experiments.self"},
        {"experiments.finish_run", "experiments.self"},
        {"core.decide", "core.decide"},
        {"fleet.run_fleet", "fleet.self"},
        {"sweep.run", "sweep.idle"},
    };
    const auto it = buckets.find(name);
    return it == buckets.end() ? "bench.self" : it->second;
}

/**
 * Self time per bucket. The buckets partition the traced budget:
 * every root span's duration plus (width - 1) x duration of each
 * wide span.
 */
std::map<std::string, double>
selfTimes(const TraceLog &log, double &budget)
{
    std::map<std::uint64_t, double> childTime;
    for (const Span &s : log.spans) {
        if (s.parent != 0)
            childTime[s.parent] += s.end - s.start;
    }
    std::map<std::string, double> buckets;
    budget = 0.0;
    for (const Span &s : log.spans) {
        const double own = s.width * (s.end - s.start);
        buckets[bucketOf(s.name)] += own - childTime[s.id];
        if (s.parent == 0)
            budget += s.end - s.start;
        budget += (s.width - 1.0) * (s.end - s.start);
    }
    for (const Charge &c : log.charges) {
        buckets[c.from] -= c.seconds;
        buckets[c.to] += c.seconds;
    }
    return buckets;
}

void
writeSpans(const TraceLog &log, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot write spans to '", path, "'");
    out << "run\tid\tparent\tname\tstart_s\tend_s\twidth\n";
    for (const Span &s : log.spans) {
        out << s.run << '\t' << s.id << '\t' << s.parent << '\t' << s.name
            << '\t' << formatJsonNumber(s.start) << '\t'
            << formatJsonNumber(s.end) << '\t'
            << formatJsonNumber(s.width) << '\n';
    }
}

// ---------------------------------------------------------------
// Host-speed probe. This host's speed drifts by up to 20% between
// processes a minute apart, in both directions, as other tenants
// come and go, while consecutive runs inside one process agree to a
// few percent. A fixed kernel of the simulator's kind (a min-heap of
// exponential timestamps), independent of hipster_core and built
// with this package's own flags, is timed next to every run; host
// times are reported scaled to a nominal host on which the kernel
// runs kProbeNominal operations per second.

constexpr std::size_t kProbeRequests = 100000;
constexpr double kProbeNominal = 5.0e6;

/**
 * Probe requests per host second on the calling thread: a batch of
 * Poisson arrivals served FCFS by 4 servers (a min-heap of their free
 * times), then a sort of the latencies for the tail. The median of
 * three passes over buffers the thread keeps, so page faults and a
 * single preempted pass do not count.
 */
double
probeOnce()
{
    thread_local std::vector<double> arrival(kProbeRequests);
    thread_local std::vector<double> latency(kProbeRequests);
    std::vector<double> rates;
    for (int pass = 0; pass < 3; ++pass) {
        const double t0 = now();
        std::mt19937_64 rng(12345);
        std::exponential_distribution<double> gap(1.0);
        std::exponential_distribution<double> service(0.3);
        double t = 0.0;
        for (double &a : arrival)
            a = t += gap(rng);
        std::priority_queue<double, std::vector<double>,
                            std::greater<double>>
            freeAt;
        for (int i = 0; i < 4; ++i)
            freeAt.push(0.0);
        for (std::size_t i = 0; i < kProbeRequests; ++i) {
            const double done =
                std::max(arrival[i], freeAt.top()) + service(rng);
            freeAt.pop();
            freeAt.push(done);
            latency[i] = done - arrival[i];
        }
        std::sort(latency.begin(), latency.end());
        const double seconds = now() - t0;
        if (!(latency.back() > 0.0) || !(seconds > 0.0))
            fatal("host-speed probe failed");
        rates.push_back(static_cast<double>(kProbeRequests) / seconds);
    }
    std::sort(rates.begin(), rates.end());
    return rates[1];
}

/** Mean probe rate of `threads` threads probing at once, so a
 * workload on a pool is compared with the host's all-busy speed. */
double
probeRate(std::size_t threads)
{
    if (threads <= 1)
        return probeOnce();
    std::vector<double> rates(threads, 0.0);
    std::vector<std::thread> probes;
    for (std::size_t i = 0; i < threads; ++i) {
        probes.emplace_back([&rates, i] {
            try {
                rates[i] = probeOnce();
            } catch (const std::exception &) {
                rates[i] = 0.0;
            }
        });
    }
    for (std::thread &t : probes)
        t.join();
    double sum = 0.0;
    for (const double r : rates) {
        if (!(r > 0.0))
            fatal("host-speed probe failed");
        sum += r;
    }
    return sum / static_cast<double>(threads);
}

// ---------------------------------------------------------------
// Measurements shared by the workloads.

/** What one measured run (or campaign) produced. */
struct Outcome
{
    std::uint64_t fingerprint = 0;
    double wall = 0.0;
    std::uint64_t nodeIntervals = 0;
    double qosPct = 0.0;
    double energyKj = 0.0;
};

/** Everything the JSON record reports. */
struct Report
{
    std::vector<double> setupSeconds; ///< nominal-host seconds
    std::vector<double> rates;        ///< untraced, nominal host
    std::vector<double> tracedRates;  ///< traced, nominal host
    std::vector<double> rawRates;     ///< untraced, this host
    std::vector<double> probeRates;   ///< probe ops/s next to runs
    double peakRssMb = 0.0;
    double qosPct = 0.0;
    double energyKj = 0.0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
    std::uint64_t fingerprint = 0;
    std::optional<std::uint64_t> pinned;
    std::map<std::string, double> layers;
    std::map<std::string, double> buckets;
    double budget = 0.0;
};

double
peakRssMb()
{
    rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0.0;
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t index = std::min(
        values.size() - 1,
        static_cast<std::size_t>(q * static_cast<double>(values.size())));
    return values[index];
}

/** One workload as the closed loop drives it. */
struct Workload
{
    /** One set-up, as a run pays it (timed, never checked). */
    std::function<void()> setup;

    /** Set-ups per timed batch: enough that one batch is not lost
     * in timer resolution. */
    std::size_t setupRepeats = 1;

    /** One whole run (or campaign); `log` != nullptr traces it. */
    std::function<Outcome(TraceLog *log)> run;

    /** Threads a run keeps busy; the probe uses as many. */
    std::size_t threads = 1;
};

/** Count a run whose fingerprint is not the expected one. */
void
checkFingerprint(std::uint64_t got, std::uint64_t expected,
                 const std::string &what, Report &report)
{
    if (got == expected)
        return;
    ++report.failed;
    report.failures.push_back(what + ": fingerprint " + hex(got) +
                              " != expected " + hex(expected));
}

/**
 * Runs the workload until `seconds` have passed (at least `minRuns`
 * times), each run starting when the previous one ended, and checks
 * every fingerprint against `expected` (or the first run's). Failures are
 * counted, not thrown. A run's rate is scaled to the nominal host by
 * the mean of the probes taken just before and just after it. The
 * untraced window (`log` == nullptr) also times one batch of set-ups
 * after each run, scaled by the probe next to it: the samples spread
 * over the window as the runs do, and none pays the first run's
 * page faults, which a user pays once per process, not per run.
 */
void
closedLoop(const Workload &w, double seconds, std::size_t minRuns,
           TraceLog *log, std::optional<std::uint64_t> &expected,
           Report &report, Outcome &last)
{
    const char *label = log ? "traced" : "untraced";
    double before = probeRate(w.threads);
    const double deadline = now() + seconds;
    for (std::size_t i = 0; i < minRuns || now() < deadline; ++i) {
        ++report.attempted;
        try {
            const Outcome out = w.run(log);
            const double after = probeRate(w.threads);
            const double raw =
                static_cast<double>(out.nodeIntervals) / out.wall;
            const double rate = raw * 2.0 * kProbeNominal / (before + after);
            if (log) {
                report.tracedRates.push_back(rate);
            } else {
                report.rates.push_back(rate);
                report.rawRates.push_back(raw);
                report.probeRates.push_back(after);
                const double t0 = now();
                for (std::size_t r = 0; r < w.setupRepeats; ++r)
                    w.setup();
                const double per =
                    (now() - t0) / static_cast<double>(w.setupRepeats);
                report.setupSeconds.push_back(per * probeOnce() /
                                              kProbeNominal);
            }
            before = after;
            last = out;
            if (!expected)
                expected = out.fingerprint;
            checkFingerprint(out.fingerprint, *expected,
                             std::string(label) + " run " +
                                 std::to_string(i),
                             report);
        } catch (const std::exception &e) {
            ++report.failed;
            report.failures.push_back(std::string(label) + " run " +
                                      std::to_string(i) +
                                      " threw: " + e.what());
        }
    }
}

/** Intervals of a run, as ExperimentRunner::run counts them. */
std::size_t
intervalsOf(const ExperimentSpec &spec)
{
    return static_cast<std::size_t>(
        spec.resolvedDuration() / spec.runner.interval + 0.5);
}

// ---------------------------------------------------------------
// node-memcached: one memcached x juno x diurnal x hipster-in run
// over its own 1440 s day, stepped through beginRun/stepNext/
// finishRun on one thread.

ExperimentSpec
nodeSpec(std::uint64_t seed)
{
    ExperimentSpec spec;
    spec.workload = kNodeWorkload;
    spec.platform = kNodePlatform;
    spec.trace = kNodeTrace;
    spec.policy = kNodePolicy;
    spec.seed = seed;
    return spec;
}

/** One complete run; `log` != nullptr records spans around every
 * call into the simulator. */
Outcome
nodeRun(const ExperimentSpec &spec, TraceLog *log)
{
    std::optional<SpanRecorder> rec;
    if (log)
        rec.emplace(nextRunId++, 0);
    SpanRecorder *r = log ? &*rec : nullptr;

    const double t0 = now();
    std::optional<Scoped> root;
    root.emplace(r, "bench.iteration");
    {
        Scoped s(r, "experiments.validate");
        spec.validate();
    }
    std::optional<ExperimentRunner> runner;
    {
        Scoped s(r, "experiments.make_runner");
        runner.emplace(spec.makeRunner());
    }
    std::unique_ptr<TaskPolicy> policy;
    {
        Scoped s(r, "core.make_policy");
        policy = spec.makePolicyFor(runner->platform());
    }
    std::optional<TimedPolicy> timed;
    if (r)
        timed.emplace(*policy, *r);
    TaskPolicy &p = r ? static_cast<TaskPolicy &>(*timed) : *policy;
    const std::size_t intervals = intervalsOf(spec);
    {
        Scoped s(r, "experiments.begin_run");
        runner->beginRun(p, intervals);
    }
    for (std::size_t k = 0; k < intervals; ++k) {
        if (r) {
            const double s0 = now();
            r->open("experiments.step");
            runner->stepNext(p);
            r->close();
            log->stepSeconds.push_back(now() - s0);
        } else {
            runner->stepNext(p);
        }
    }
    ExperimentResult result;
    {
        Scoped s(r, "experiments.finish_run");
        result = runner->finishRun();
    }
    Outcome out;
    out.wall = now() - t0;
    out.fingerprint = hashSeries(result.series, kFnvBasis);
    out.nodeIntervals = result.series.size();
    out.qosPct = 100.0 * result.summary.qosGuarantee;
    out.energyKj = result.summary.energy / 1000.0;
    root.reset();
    if (log) {
        log->absorb(*r);
        log->chargeProfile(result.profile, "experiments.self", false);
        log->decideCalls += timed->calls();
        ++log->iterations;
    }
    return out;
}

void
nodeSetup(const ExperimentSpec &spec)
{
    spec.validate();
    ExperimentRunner runner = spec.makeRunner();
    const auto policy = spec.makePolicyFor(runner.platform());
    runner.beginRun(*policy, intervalsOf(spec));
}

// ---------------------------------------------------------------
// fleet-mixed: one runFleet of 256 websearch nodes.

FleetSpec
fleetSpec(std::uint64_t seed)
{
    FleetSpec spec;
    for (std::size_t i = 0; i < kFleetNodes; ++i)
        spec.nodes.push_back({kFleetCycle[i % 4], "hipster-in"});
    spec.workload = kFleetWorkload;
    spec.trace = kFleetTrace;
    spec.dispatcher = kFleetDispatcher;
    spec.migration = kFleetMigration;
    spec.hazard = kFleetHazard;
    spec.duration = kFleetDuration;
    spec.seed = seed;
    return spec;
}

/** The per-node spec runFleet builds (fleet/fleet.cc nodeExperiment). */
ExperimentSpec
fleetNodeSpec(const FleetSpec &fleet, std::size_t index)
{
    ExperimentSpec spec;
    spec.workload = fleet.workload;
    spec.platform = fleet.nodes[index].platform;
    spec.trace = "constant:0";
    spec.policy = fleet.nodes[index].policy;
    spec.hazard = fleet.hazard;
    spec.duration = fleet.duration;
    spec.durationScale = fleet.durationScale;
    spec.seed = splitMix64(fleet.seed +
                           0x9e3779b97f4a7c15ULL * (index + 1));
    spec.runner = fleet.runner;
    return spec;
}

/** Host seconds of each set-up step, for one fleet set-up. */
struct FleetSetupSplit
{
    double validate = 0.0;
    double makeRunner = 0.0;
    double makePolicy = 0.0;
    double beginRun = 0.0;
};

/**
 * Everything runFleet does before its first interval, through the
 * same public calls: validation, the fleet trace, dispatcher and
 * migration engine, and every node's runner, policy and beginRun.
 * runFleet itself cannot be split from outside.
 */
FleetSetupSplit
fleetSetup(const FleetSpec &spec)
{
    FleetSetupSplit split;
    double t = now();
    spec.validate();
    const double duration = spec.resolvedDuration();
    const auto intervals =
        static_cast<std::size_t>(duration / spec.runner.interval + 0.5);
    const LcWorkloadDef def = makeWorkloadFromSpec(spec.workload);
    const auto dispatcher = makeDispatcher(spec.dispatcher);
    const auto trace = makeTrace(spec.trace, duration, spec.seed + 100);
    double next = now();
    split.validate = next - t;

    std::vector<ExperimentRunner> runners;
    std::vector<std::unique_ptr<TaskPolicy>> policies;
    runners.reserve(spec.nodes.size());
    std::vector<std::string> isas;
    double capacity = 0.0;
    for (std::size_t i = 0; i < spec.nodes.size(); ++i) {
        const ExperimentSpec node = fleetNodeSpec(spec, i);
        t = now();
        runners.push_back(node.makeRunner());
        capacity += nodeCapacity(runners.back().platform().spec(), def);
        isas.push_back(runners.back().platform().spec().isa);
        next = now();
        split.makeRunner += next - t;
        policies.push_back(node.makePolicyFor(runners.back().platform()));
        split.makePolicy += now() - next;
    }
    t = now();
    const auto model = makeMigrationModel(spec.migration);
    std::optional<MigrationEngine> engine;
    if (model)
        engine.emplace(*model, std::move(isas));
    for (std::size_t i = 0; i < runners.size(); ++i)
        runners[i].beginRun(*policies[i], intervals);
    split.beginRun = now() - t;
    if (!(capacity > 0.0) || !trace)
        fatal("fleet set-up built an empty fleet");
    return split;
}

Outcome
fleetRun(const FleetSpec &spec, TraceLog *log,
         const FleetSetupSplit &setup)
{
    std::optional<SpanRecorder> rec;
    if (log)
        rec.emplace(nextRunId++, 0);
    SpanRecorder *r = log ? &*rec : nullptr;

    const double t0 = now();
    std::optional<Scoped> root;
    root.emplace(r, "bench.iteration");
    FleetResult result;
    {
        Scoped s(r, "fleet.run_fleet");
        result = runFleet(spec);
    }
    Outcome out;
    out.wall = now() - t0;
    out.fingerprint = fleetFingerprint(result);
    out.nodeIntervals = result.nodes.size() * result.fleetSeries.size();
    // Share of node-intervals meeting the target. The all-nodes
    // share (summary.fleet.qosGuarantee) counts only the ~2% of
    // intervals in which none of 256 nodes missed, and moved by
    // 30% between seeds.
    double met = 0.0, intervals = 0.0;
    for (const FleetNodeResult &node : result.nodes) {
        const auto n = static_cast<double>(node.result.summary.intervals);
        met += node.result.summary.qosGuarantee * n;
        intervals += n;
    }
    out.qosPct = intervals > 0.0 ? 100.0 * met / intervals : 0.0;
    out.energyKj = result.summary.fleet.energy / 1000.0;
    root.reset();
    if (log) {
        log->absorb(*r);
        log->charges.push_back(
            {"fleet.self", "setup.validate", setup.validate});
        log->charges.push_back(
            {"fleet.self", "setup.make_runner", setup.makeRunner});
        log->charges.push_back(
            {"fleet.self", "setup.make_policy", setup.makePolicy});
        log->charges.push_back(
            {"fleet.self", "setup.begin_run", setup.beginRun});
        for (const FleetNodeResult &node : result.nodes) {
            const PhaseProfile &p = node.result.profile;
            log->chargeProfile(p, "fleet.self", true);
            log->decideCalls += p.intervals;
            if (p.intervals > 0)
                log->stepSeconds.push_back(p.totalSeconds() /
                                           static_cast<double>(p.intervals));
        }
        log->moves += result.summary.migration.moves;
        ++log->iterations;
    }
    return out;
}

// ---------------------------------------------------------------
// sweep-grid: one SweepEngine campaign at jobs=kSweepJobs.

SweepSpec
sweepSpec(std::uint64_t seed)
{
    SweepSpec spec;
    spec.workloads = {"memcached", "websearch"};
    spec.platforms = {"juno", "hetero", "montecimone"};
    // A flash crowd, not an MMPP: every cell shares one trace
    // realization per seed (common random numbers), so a single
    // MMPP draw moved a campaign's event count by 43% between
    // seeds and node_intervals_per_s with it.
    spec.traces = {"diurnal", "flashcrowd:0.2,0.9"};
    spec.policies = {"hipster-in", "heuristic", "octopus-man",
                     "static-big"};
    spec.hazards = {"none", "hazard:thermal+interference"};
    spec.seeds = kSweepSeeds;
    spec.masterSeed = seed;
    spec.durationScale = kSweepScale;
    return spec;
}

/** The ExperimentSpec SweepEngine::runJob builds for a job. */
ExperimentSpec
sweepJobSpec(const SweepSpec &sweep, const SweepJob &job)
{
    ExperimentSpec spec;
    spec.workload = job.workload;
    spec.platform = job.platform;
    spec.trace = job.trace;
    spec.policy = job.policy;
    spec.hazard = job.hazard;
    spec.duration = sweep.duration;
    spec.durationScale = sweep.durationScale;
    spec.seed = job.seed;
    spec.runner = sweep.runner;
    return spec;
}

Outcome
sweepOutcome(const SweepResults &results, double wall)
{
    Outcome out;
    out.wall = wall;
    out.fingerprint = sweepFingerprint(results);
    double qos = 0.0;
    for (const SweepRun &run : results.runs) {
        out.nodeIntervals += run.result.series.size();
        qos += run.result.summary.qosGuarantee;
        out.energyKj += run.result.summary.energy / 1000.0;
    }
    out.qosPct = 100.0 * qos / static_cast<double>(results.runs.size());
    return out;
}

Outcome
sweepRun(const SweepSpec &spec, std::size_t jobs)
{
    const double t0 = now();
    const SweepEngine engine(spec);
    const SweepResults results = engine.run(jobs);
    return sweepOutcome(results, now() - t0);
}

/**
 * The traced campaign: validation in a span, then a jobRunner that
 * runs each job exactly as SweepEngine::runJob's default wiring
 * (ExperimentSpec::run) does, with spans around every call.
 */
Outcome
sweepTracedRun(const SweepSpec &spec, TraceLog &log)
{
    const std::uint64_t campaign = nextRunId++;
    SpanRecorder main(campaign, 0);
    const double t0 = now();
    main.open("bench.iteration");
    std::size_t jobCount = 0;
    {
        Scoped s(&main, "experiments.validate");
        jobCount = SweepEngine(spec).expandJobs().size();
    }
    SweepSpec traced = spec;
    std::vector<std::vector<Span>> jobSpans(jobCount);
    std::vector<std::vector<double>> jobSteps(jobCount);
    std::vector<std::uint64_t> jobCalls(jobCount, 0);
    const std::uint64_t runSpan =
        main.open("sweep.run", static_cast<double>(kSweepJobs));
    traced.jobRunner = [&](const SweepJob &job) {
        SpanRecorder rec(nextRunId++, runSpan);
        rec.open("sweep.job");
        const ExperimentSpec experiment = sweepJobSpec(spec, job);
        std::optional<ExperimentRunner> runner;
        {
            Scoped s(&rec, "experiments.make_runner");
            runner.emplace(experiment.makeRunner());
        }
        std::unique_ptr<TaskPolicy> policy;
        {
            Scoped s(&rec, "core.make_policy");
            policy = experiment.makePolicyFor(runner->platform());
        }
        TimedPolicy timed(*policy, rec);
        const std::size_t intervals = intervalsOf(experiment);
        {
            Scoped s(&rec, "experiments.begin_run");
            runner->beginRun(timed, intervals);
        }
        std::vector<double> &steps = jobSteps[job.index];
        steps.reserve(intervals);
        for (std::size_t k = 0; k < intervals; ++k) {
            const double s0 = now();
            rec.open("experiments.step");
            runner->stepNext(timed);
            rec.close();
            steps.push_back(now() - s0);
        }
        ExperimentResult result;
        {
            Scoped s(&rec, "experiments.finish_run");
            result = runner->finishRun();
        }
        rec.close();
        jobCalls[job.index] = timed.calls();
        jobSpans[job.index] = std::move(rec.spans());
        return result;
    };
    const SweepEngine engine(traced);
    const SweepResults results = engine.run(kSweepJobs);
    main.close(); // sweep.run
    const Outcome out = sweepOutcome(results, now() - t0);
    main.close(); // bench.iteration

    log.absorb(main);
    for (std::size_t i = 0; i < jobCount; ++i) {
        log.spans.insert(log.spans.end(), jobSpans[i].begin(),
                         jobSpans[i].end());
        log.stepSeconds.insert(log.stepSeconds.end(), jobSteps[i].begin(),
                               jobSteps[i].end());
        log.decideCalls += jobCalls[i];
    }
    for (const SweepRun &run : results.runs)
        log.chargeProfile(run.result.profile, "experiments.self", false);
    ++log.iterations;
    return out;
}

void
sweepSetup(const SweepSpec &spec)
{
    const SweepEngine engine(spec);
    for (const SweepJob &job : engine.expandJobs()) {
        const ExperimentSpec experiment = sweepJobSpec(spec, job);
        ExperimentRunner runner = experiment.makeRunner();
        const auto policy = experiment.makePolicyFor(runner.platform());
        runner.beginRun(*policy, intervalsOf(experiment));
    }
}

// ---------------------------------------------------------------
// Per-layer metrics from a traced window.

void
summarizeTrace(const TraceLog &log, Report &report)
{
    const double n = static_cast<double>(std::max<std::size_t>(
        1, log.iterations));
    double budget = 0.0;
    const auto buckets = selfTimes(log, budget);
    auto bucket = [&](const char *name) {
        const auto it = buckets.find(name);
        return it == buckets.end() ? 0.0 : it->second;
    };
    auto share = [&](double seconds) {
        return budget > 0.0 ? 100.0 * seconds / budget : 0.0;
    };

    const double eventLoop = bucket("sim.event_loop");
    auto &L = report.layers;
    L["loadgen.arrival_s"] = bucket("loadgen.arrival") / n;
    L["sim.event_loop_s"] = eventLoop / n;
    L["sim.events"] = static_cast<double>(log.simEvents) / n;
    L["sim.ns_per_event"] =
        log.simEvents ? 1e9 * eventLoop / static_cast<double>(log.simEvents)
                      : 0.0;
    L["sim.us_per_interval"] =
        log.nodeIntervals
            ? 1e6 * eventLoop / static_cast<double>(log.nodeIntervals)
            : 0.0;
    L["core.decide_calls"] = static_cast<double>(log.decideCalls) / n;
    L["core.decide_s"] = bucket("core.decide") / n;
    L["experiments.metrics_s"] = bucket("experiments.metrics") / n;
    L["experiments.step_p50_us"] = 1e6 * quantile(log.stepSeconds, 0.50);
    L["experiments.step_p99_us"] = 1e6 * quantile(log.stepSeconds, 0.99);
    L["experiments.validate_s"] = bucket("setup.validate") / n;
    L["experiments.make_runner_s"] = bucket("setup.make_runner") / n;
    L["core.make_policy_s"] = bucket("setup.make_policy") / n;
    L["experiments.self_pct"] = share(bucket("experiments.self"));
    L["fleet.node_step_s"] = log.nodeStepSeconds / n;
    L["fleet.self_pct"] = share(bucket("fleet.self"));
    L["migration.moves"] = static_cast<double>(log.moves) / n;
    L["bench.unattributed_pct"] = share(bucket("bench.self"));

    // Busy share of the threads that run simulations, and the
    // longest single run: a sweep job, or one whole iteration when
    // the workload runs on the benchmark's own thread.
    double busy = 0.0, capacity = 0.0, jobMax = 0.0;
    const bool pooled = std::any_of(
        log.spans.begin(), log.spans.end(),
        [](const Span &s) { return std::strcmp(s.name, "sweep.run") == 0; });
    for (const Span &s : log.spans) {
        const double d = s.end - s.start;
        if (pooled) {
            if (std::strcmp(s.name, "sweep.run") == 0)
                capacity += s.width * d;
            if (std::strcmp(s.name, "sweep.job") == 0) {
                busy += d;
                jobMax = std::max(jobMax, d);
            }
        } else if (s.parent == 0) {
            capacity += d;
            jobMax = std::max(jobMax, d);
        }
    }
    if (!pooled)
        busy = capacity - bucket("bench.self");
    L["sweep.busy_pct"] = capacity > 0.0 ? 100.0 * busy / capacity : 0.0;
    L["sweep.job_max_s"] = jobMax;
    report.buckets = buckets;
    report.budget = budget;
}

// ---------------------------------------------------------------
// JSON record.

std::string
quoted(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
numbers(const std::vector<double> &values)
{
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i)
        out += (i ? "," : "") + formatJsonNumber(values[i]);
    return out + "]";
}

std::string
object(const std::map<std::string, double> &values)
{
    std::string out = "{";
    bool first = true;
    for (const auto &[key, value] : values) {
        out += (first ? "" : ",") + quoted(key) + ":" +
               formatJsonNumber(value);
        first = false;
    }
    return out + "}";
}

void
printRecord(const std::string &workload, std::uint64_t seed, bool trace,
            const Report &r)
{
    std::string failureList = "[";
    for (std::size_t i = 0; i < r.failures.size(); ++i)
        failureList += (i ? "," : "") + quoted(r.failures[i]);
    failureList += "]";

    std::printf(
        "{\"workload\":%s,\"seed\":%s,\"trace\":%s,"
        "\"build\":{\"git_sha\":%s,\"compiler\":%s,\"flags\":%s,"
        "\"build_type\":%s},"
        "\"attempted\":%s,\"failed\":%s,\"failures\":%s,"
        "\"fingerprint\":%s,\"pinned\":%s,"
        "\"setup_s\":%s,\"rates\":%s,\"traced_rates\":%s,"
        "\"raw_rates\":%s,\"probe_rates\":%s,"
        "\"peak_rss_mb\":%s,\"qos_guarantee_pct\":%s,\"energy_kj\":%s,"
        "\"layers\":%s,\"buckets\":%s,\"budget_s\":%s}\n",
        quoted(workload).c_str(), formatJsonNumber(seed).c_str(),
        trace ? "true" : "false", quoted(buildGitSha()).c_str(),
        quoted(buildCompilerId()).c_str(),
        quoted(buildCompilerFlags()).c_str(),
        quoted(buildTypeName()).c_str(),
        formatJsonNumber(r.attempted).c_str(),
        formatJsonNumber(r.failed).c_str(), failureList.c_str(),
        quoted(hex(r.fingerprint)).c_str(),
        r.pinned ? quoted(hex(*r.pinned)).c_str() : "null",
        numbers(r.setupSeconds).c_str(), numbers(r.rates).c_str(),
        numbers(r.tracedRates).c_str(), numbers(r.rawRates).c_str(),
        numbers(r.probeRates).c_str(), formatJsonNumber(r.peakRssMb).c_str(),
        formatJsonNumber(r.qosPct).c_str(),
        formatJsonNumber(r.energyKj).c_str(), object(r.layers).c_str(),
        object(r.buckets).c_str(), formatJsonNumber(r.budget).c_str());
}

// ---------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string spans;
};

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            fatal("missing value for ", flag);
        const std::string value = argv[++i];
        if (flag == "--workload") {
            o.workload = value;
        } else if (flag == "--seed") {
            o.seed = std::stoull(value);
        } else if (flag == "--seconds") {
            o.seconds = std::stod(value);
            if (!(o.seconds > 0.0))
                fatal("--seconds must be > 0");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                fatal("--trace takes 0 or 1");
            o.trace = value == "1";
        } else if (flag == "--spans") {
            o.spans = value;
        } else {
            fatal("unknown option ", flag);
        }
    }
    if (o.workload != "node-memcached" && o.workload != "fleet-mixed" &&
        o.workload != "sweep-grid")
        fatal("--workload must be node-memcached, fleet-mixed or "
              "sweep-grid");
    return o;
}

int
benchMain(int argc, char **argv)
{
    const Options o = parseOptions(argc, argv);
    const bool pinnedSeed = o.seed == kDefaultSeed;
    Report report;
    TraceLog log;
    std::optional<std::uint64_t> expected;
    Workload w;

    if (o.workload == "node-memcached") {
        const ExperimentSpec spec = nodeSpec(o.seed);
        if (pinnedSeed)
            expected = kPinNode;
        w.setup = [spec] { nodeSetup(spec); };
        w.setupRepeats = 200;
        w.run = [spec](TraceLog *l) { return nodeRun(spec, l); };
    } else if (o.workload == "fleet-mixed") {
        const FleetSpec spec = fleetSpec(o.seed);
        if (pinnedSeed)
            expected = kPinFleet;
        // The traced run charges runFleet's set-up by the latest split.
        auto split = std::make_shared<FleetSetupSplit>();
        w.setup = [spec, split] { *split = fleetSetup(spec); };
        w.run = [spec, split](TraceLog *l) {
            return fleetRun(spec, l, *split);
        };
    } else {
        const SweepSpec spec = sweepSpec(o.seed);
        if (pinnedSeed)
            expected = kPinSweep;
        w.setup = [spec] { sweepSetup(spec); };
        w.setupRepeats = 4;
        w.run = [spec](TraceLog *l) {
            return l ? sweepTracedRun(spec, *l) : sweepRun(spec, kSweepJobs);
        };
        w.threads = kSweepJobs;
    }
    if (pinnedSeed)
        report.pinned = expected;

    Outcome last;
    closedLoop(w, o.seconds, 2, nullptr, expected, report, last);
    report.peakRssMb = peakRssMb();
    report.qosPct = last.qosPct;
    report.energyKj = last.energyKj;
    report.fingerprint = last.fingerprint;

    // The traced window: one run, or --seconds of runs with --trace 1.
    // It must reproduce the untraced fingerprint bit for bit.
    Outcome traced;
    closedLoop(w, o.trace ? o.seconds : 0.0, 1, &log, expected, report,
               traced);
    // Off the pinned seed, jobs=1 must match the jobs=4 campaign.
    if (o.workload == "sweep-grid" && !pinnedSeed && expected) {
        ++report.attempted;
        try {
            checkFingerprint(sweepRun(sweepSpec(o.seed), 1).fingerprint,
                             *expected, "jobs=1 campaign", report);
        } catch (const std::exception &e) {
            ++report.failed;
            report.failures.push_back(
                std::string("jobs=1 campaign threw: ") + e.what());
        }
    }

    if (o.trace) {
        summarizeTrace(log, report);
        if (!o.spans.empty())
            writeSpans(log, o.spans);
    }
    printRecord(o.workload, o.seed, o.trace, report);
    return report.failed == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return benchMain(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "hipster_perfbench: %s\n", e.what());
        return 2;
    }
}

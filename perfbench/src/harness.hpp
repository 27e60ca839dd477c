// Measurement plumbing shared by the perfbench workloads: sample
// statistics, in-memory spans written out as a Chrome trace, user-space
// perf_event_open counters, the metric report, and host probes (peak RSS,
// LLC size from sysfs, a STREAM triad roof).
//
// Everything here measures the program from outside: spans wrap calls into
// the public functions of the spmvcache libraries, never code inside them.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/// A bag of timings (or any values) with order statistics.
class Samples {
public:
    void add(double v) { values_.push_back(v); }
    [[nodiscard]] std::size_t size() const { return values_.size(); }
    /// Linear-interpolated quantile, q in [0, 1]; 0 when empty.
    [[nodiscard]] double quantile(double q) const;
    [[nodiscard]] double median() const { return quantile(0.5); }
    [[nodiscard]] double max() const { return quantile(1.0); }
    [[nodiscard]] double sum() const;
    [[nodiscard]] double mean() const;
    void append(const Samples& other);

private:
    std::vector<double> values_;
};

/// Seconds each of `n` calls of fn() took.
template <class Fn>
[[nodiscard]] Samples time_calls(int n, Fn&& fn) {
    Samples s;
    for (int i = 0; i < n; ++i) {
        const Clock::time_point start = Clock::now();
        fn();
        s.add(seconds_since(start));
    }
    return s;
}

// ---------------------------------------------------------------- spans

/// Turns span recording on or off process-wide (off: a Span is one branch).
void set_tracing(bool on);
[[nodiscard]] bool tracing();

/// One closed span. `parent` is the id of the enclosing span on the same
/// thread (0 = a root span).
struct SpanRecord {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::string name;
    double start_us = 0.0;  ///< since process start
    double end_us = 0.0;
    std::uint64_t tid = 0;
};

/// RAII span around one call into a layer. Always measures its own
/// duration (so callers can use it as their timer); records only while
/// tracing is on.
class Span {
public:
    explicit Span(const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Closes the span early and returns its duration in seconds.
    double stop();

private:
    const char* name_;
    Clock::time_point start_;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    double seconds_ = -1.0;
};

/// Every span recorded so far (all threads), in no particular order.
[[nodiscard]] std::vector<SpanRecord> collected_spans();

/// Writes the spans as Chrome trace-event JSON (chrome://tracing,
/// ui.perfetto.dev), plus `metadata` as the trace's "otherData".
bool write_chrome_trace(const std::string& path,
                        const std::map<std::string, std::string>& metadata);

// -------------------------------------------------------------- counters

/// User-space hardware counters over one region.
struct CounterValues {
    bool available = false;
    std::string reason;  ///< why not, when unavailable
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t llc_misses = 0;
    std::uint64_t dtlb_misses = 0;
};

/// Opens cycles / instructions / LLC-miss / dTLB-miss counters on every
/// thread of this process (inherited by threads started inside the
/// region) and reads their sum on stop(). When the kernel refuses an
/// event the region reports unavailable and never fails the run.
class CounterRegion {
public:
    CounterRegion();
    ~CounterRegion();
    CounterRegion(const CounterRegion&) = delete;
    CounterRegion& operator=(const CounterRegion&) = delete;

    CounterValues stop();

private:
    std::vector<int> fds_;  ///< 4 per thread, event order as CounterValues
    std::string reason_;
    bool stopped_ = false;
};

// ---------------------------------------------------------------- report

/// The run's metrics (name -> value, unit) and recorded choices.
class Report {
public:
    void metric(const std::string& name, double value,
                const std::string& unit);
    void choice(const std::string& key, const std::string& value);
    /// Counter-derived metric: `value` when the counters were available,
    /// -1 (with the choice "counters" saying why) otherwise.
    void counter_metric(const std::string& name, const CounterValues& c,
                        double value, const std::string& unit);
    [[nodiscard]] const std::map<std::string, std::string>& choices() const {
        return choices_;
    }
    [[nodiscard]] std::string metrics_json() const;
    [[nodiscard]] std::string choices_json() const;

private:
    std::map<std::string, std::pair<double, std::string>> metrics_;
    std::map<std::string, std::string> choices_;
};

// ------------------------------------------------------------------ host

/// Peak resident set of this process so far, MiB.
[[nodiscard]] double self_peak_rss_mib();

/// Current resident set of this process (VmRSS), MiB; the peak when /proc
/// gives nothing.
[[nodiscard]] double resident_mib();

/// Largest data/unified cache reported under sysfs (bytes), or 32 MiB
/// when sysfs gives nothing.
[[nodiscard]] std::uint64_t llc_bytes_from_sysfs();

/// STREAM triad a = b + s*c on `threads` threads over three arrays of
/// `array_bytes` each; best-of-`reps` bandwidth in GB/s counting 3 arrays
/// of traffic per pass (the STREAM convention).
[[nodiscard]] double stream_triad_gbs(std::uint64_t array_bytes, int threads,
                                      int reps);

/// JSON string literal.
[[nodiscard]] std::string quote(const std::string& s);

}  // namespace perfbench

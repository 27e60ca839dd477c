#include "harness.hpp"

#include <linux/perf_event.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <thread>

namespace perfbench {

// ---------------------------------------------------------------- samples

double Samples::quantile(double q) const {
    if (values_.empty()) return 0.0;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double Samples::sum() const {
    return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Samples::mean() const {
    return values_.empty() ? 0.0
                           : sum() / static_cast<double>(values_.size());
}

void Samples::append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

// ------------------------------------------------------------------ spans

namespace {

const Clock::time_point g_origin = Clock::now();
std::atomic<bool> g_tracing{false};
std::atomic<std::uint64_t> g_next_span{1};

struct ThreadSpans {
    std::uint64_t tid = 0;
    std::vector<SpanRecord> records;
    std::vector<std::uint64_t> open;  ///< ids of the spans open here
};

std::mutex g_span_mutex;
std::vector<std::shared_ptr<ThreadSpans>> g_threads;  // guarded
std::atomic<std::uint64_t> g_next_tid{1};

ThreadSpans& thread_spans() {
    thread_local std::shared_ptr<ThreadSpans> mine = [] {
        auto t = std::make_shared<ThreadSpans>();
        t->tid = g_next_tid.fetch_add(1);
        const std::lock_guard<std::mutex> lock(g_span_mutex);
        g_threads.push_back(t);
        return t;
    }();
    return *mine;
}

double us_since_origin(Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - g_origin).count();
}

}  // namespace

void set_tracing(bool on) { g_tracing.store(on); }
bool tracing() { return g_tracing.load(std::memory_order_relaxed); }

Span::Span(const char* name) : name_(name), start_(Clock::now()) {
    if (!tracing()) return;
    ThreadSpans& t = thread_spans();
    id_ = g_next_span.fetch_add(1);
    parent_ = t.open.empty() ? 0 : t.open.back();
    t.open.push_back(id_);
}

Span::~Span() { stop(); }

double Span::stop() {
    if (seconds_ >= 0.0) return seconds_;
    const Clock::time_point end = Clock::now();
    seconds_ = std::chrono::duration<double>(end - start_).count();
    if (id_ != 0) {
        ThreadSpans& t = thread_spans();
        if (!t.open.empty() && t.open.back() == id_) t.open.pop_back();
        t.records.push_back(SpanRecord{id_, parent_, name_,
                                       us_since_origin(start_),
                                       us_since_origin(end), t.tid});
    }
    return seconds_;
}

std::vector<SpanRecord> collected_spans() {
    std::vector<SpanRecord> all;
    const std::lock_guard<std::mutex> lock(g_span_mutex);
    for (const auto& t : g_threads)
        all.insert(all.end(), t->records.begin(), t->records.end());
    return all;
}

std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

namespace {

std::string num(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

}  // namespace

bool write_chrome_trace(const std::string& path,
                        const std::map<std::string, std::string>& metadata) {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{";
    bool first = true;
    for (const auto& [k, v] : metadata) {
        out << (first ? "" : ",") << quote(k) << ':' << quote(v);
        first = false;
    }
    out << "},\"traceEvents\":[";
    first = true;
    for (const SpanRecord& s : collected_spans()) {
        out << (first ? "\n" : ",\n") << "{\"name\":" << quote(s.name)
            << ",\"cat\":" << quote(s.name.substr(0, s.name.find('.')))
            << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
            << ",\"ts\":" << num(s.start_us)
            << ",\"dur\":" << num(s.end_us - s.start_us)
            << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
            << "}}";
        first = false;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

// --------------------------------------------------------------- counters

namespace {

long perf_event_open(perf_event_attr* attr, pid_t pid) {
    return syscall(SYS_perf_event_open, attr, pid, -1, -1, 0);
}

constexpr std::uint64_t hw_cache(std::uint64_t cache) {
    return cache | (std::uint64_t{PERF_COUNT_HW_CACHE_OP_READ} << 8) |
           (std::uint64_t{PERF_COUNT_HW_CACHE_RESULT_MISS} << 16);
}

/// Opens one user-space counter on thread `tid`; the LLC event falls back
/// to the generic cache-miss event where the PMU lacks an LL read-miss
/// mapping (AMD).
int open_event(int which, pid_t tid, std::string& reason) {
    struct Choice {
        std::uint32_t type;
        std::uint64_t config;
    };
    const Choice primary[4] = {
        {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES},
        {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS},
        {PERF_TYPE_HW_CACHE, hw_cache(PERF_COUNT_HW_CACHE_LL)},
        {PERF_TYPE_HW_CACHE, hw_cache(PERF_COUNT_HW_CACHE_DTLB)},
    };
    perf_event_attr attr{};
    attr.size = sizeof attr;
    attr.type = primary[which].type;
    attr.config = primary[which].config;
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    attr.inherit = 1;
    long fd = perf_event_open(&attr, tid);
    if (fd < 0 && which == 2) {
        attr.type = PERF_TYPE_HARDWARE;
        attr.config = PERF_COUNT_HW_CACHE_MISSES;
        fd = perf_event_open(&attr, tid);
    }
    if (fd < 0 && reason.empty())
        reason = std::string("perf_event_open: ") + std::strerror(errno);
    return static_cast<int>(fd);
}

std::vector<pid_t> process_threads() {
    std::vector<pid_t> tids;
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator("/proc/self/task", ec)) {
        pid_t tid = 0;
        const std::string name = entry.path().filename().string();
        if (std::from_chars(name.data(), name.data() + name.size(), tid).ec ==
            std::errc{})
            tids.push_back(tid);
    }
    if (tids.empty()) tids.push_back(0);
    return tids;
}

}  // namespace

CounterRegion::CounterRegion() {
    for (const pid_t tid : process_threads()) {
        for (int which = 0; which < 4; ++which) {
            const int fd = open_event(which, tid, reason_);
            if (fd < 0) {
                // A thread that exited between listing and opening is
                // harmless; any other refusal makes the region unavailable.
                if (errno == ESRCH) {
                    reason_.clear();
                    break;
                }
                return;
            }
            fds_.push_back(fd);
        }
        if (fds_.size() % 4 != 0) {  // drop a partial thread (ESRCH)
            while (fds_.size() % 4 != 0) {
                close(fds_.back());
                fds_.pop_back();
            }
        }
    }
}

CounterRegion::~CounterRegion() {
    for (const int fd : fds_) close(fd);
}

CounterValues CounterRegion::stop() {
    CounterValues v;
    if (stopped_) return v;
    stopped_ = true;
    if (!reason_.empty() || fds_.empty()) {
        v.reason = reason_.empty() ? "no counters opened" : reason_;
        return v;
    }
    std::uint64_t sums[4] = {0, 0, 0, 0};
    for (std::size_t i = 0; i < fds_.size(); ++i) {
        std::uint64_t value = 0;
        if (read(fds_[i], &value, sizeof value) != sizeof value) {
            v.reason = "counter read failed";
            return v;
        }
        sums[i % 4] += value;
    }
    v.available = true;
    v.cycles = sums[0];
    v.instructions = sums[1];
    v.llc_misses = sums[2];
    v.dtlb_misses = sums[3];
    return v;
}

// ----------------------------------------------------------------- report

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
    metrics_[name] = {value, unit};
}

void Report::choice(const std::string& key, const std::string& value) {
    choices_[key] = value;
}

void Report::counter_metric(const std::string& name, const CounterValues& c,
                            double value, const std::string& unit) {
    if (c.available) {
        metric(name, value, unit);
    } else {
        metric(name, -1.0, unit);
        choice("counters", "unavailable: " + c.reason);
    }
}

std::string Report::metrics_json() const {
    std::string out = "{";
    bool first = true;
    for (const auto& [name, vu] : metrics_) {
        out += (first ? "" : ", ") + quote(name) + ": {\"value\": " +
               num(vu.first) + ", \"unit\": " + quote(vu.second) + "}";
        first = false;
    }
    return out + "}";
}

std::string Report::choices_json() const {
    std::string out = "{";
    bool first = true;
    for (const auto& [k, v] : choices_) {
        out += (first ? "" : ", ") + quote(k) + ": " + quote(v);
        first = false;
    }
    return out + "}";
}

// ------------------------------------------------------------------- host

double self_peak_rss_mib() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double resident_mib() {
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        if (key == "VmRSS:") {
            double kib = 0.0;
            if (status >> kib) return kib / 1024.0;
            break;
        }
        status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
    }
    return self_peak_rss_mib();
}

std::uint64_t llc_bytes_from_sysfs() {
    std::uint64_t best = 0;
    for (int index = 0; index < 8; ++index) {
        const std::string base =
            "/sys/devices/system/cpu/cpu0/cache/index" +
            std::to_string(index) + "/";
        std::ifstream type_file(base + "type");
        std::ifstream size_file(base + "size");
        std::string type;
        std::string size;
        if (!(type_file >> type) || !(size_file >> size)) continue;
        if (type == "Instruction" || size.empty()) continue;
        std::uint64_t value = 0;
        const auto res =
            std::from_chars(size.data(), size.data() + size.size(), value);
        if (res.ec != std::errc{}) continue;
        const char suffix = res.ptr < size.data() + size.size() ? *res.ptr : 0;
        if (suffix == 'K') value <<= 10;
        if (suffix == 'M') value <<= 20;
        best = std::max(best, value);
    }
    return best > 0 ? best : std::uint64_t{32} << 20;
}

double stream_triad_gbs(std::uint64_t array_bytes, int threads, int reps) {
    const std::size_t n = array_bytes / sizeof(double);
    std::unique_ptr<double[]> a(new double[n]);
    std::unique_ptr<double[]> b(new double[n]);
    std::unique_ptr<double[]> c(new double[n]);
    const auto slice = [&](int t, auto&& fn) {
        const std::size_t lo = n * static_cast<std::size_t>(t) /
                               static_cast<std::size_t>(threads);
        const std::size_t hi = n * static_cast<std::size_t>(t + 1) /
                               static_cast<std::size_t>(threads);
        fn(lo, hi);
    };
    const auto parallel = [&](auto&& fn) {
        std::vector<std::thread> team;
        for (int t = 1; t < threads; ++t)
            team.emplace_back([&, t] { slice(t, fn); });
        slice(0, fn);
        for (auto& th : team) th.join();
    };
    parallel([&](std::size_t lo, std::size_t hi) {  // first touch per owner
        for (std::size_t i = lo; i < hi; ++i) {
            a[i] = 0.0;
            b[i] = 1.0;
            c[i] = 2.0;
        }
    });
    double best = 0.0;
    for (int r = 0; r < reps; ++r) {
        const Clock::time_point start = Clock::now();
        parallel([&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + 3.0 * c[i];
        });
        const double s = seconds_since(start);
        best = std::max(best, 3.0 * static_cast<double>(array_bytes) / s / 1e9);
    }
    if (a[n / 2] != 7.0) return -1.0;  // the triad itself went wrong
    return best;
}

}  // namespace perfbench

/**
 * @file
 * In-memory span recorder for the benchmark's traced mode.
 *
 * A span covers one call the benchmark makes into a libdiq layer: its
 * layer name (spec, trace, sim, runner, store, serve, or bench for the
 * benchmark's own code), call name, start and end on the steady clock,
 * the span that was open on the same thread when it started (its
 * parent), and a run id shared by every span of one job or submit.
 * Spans stay in memory and are written once, at exit. With tracing
 * off a scope reads no clock and records nothing.
 */

#ifndef PERFBENCH_TRACER_HH
#define PERFBENCH_TRACER_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

/** Nanoseconds on the steady clock. */
int64_t nowNs();

struct Span
{
    uint64_t id = 0;
    uint64_t parent = 0; ///< 0 = root
    uint64_t run = 0;
    const char *layer = "";
    const char *name = "";
    int64_t t0 = 0, t1 = 0;
};

class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on) {}

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    bool on() const { return on_; }

    /** One open span; closes on stop() or destruction. */
    class Scope
    {
      public:
        Scope(Tracer &t, const char *layer, const char *name,
              uint64_t run, uint64_t parent);
        ~Scope() { stop(); }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Close the span (once); its duration in ns, 0 when off. */
        int64_t stop();

        /** This span's id, for children opened on other threads. */
        uint64_t id() const { return s_.id; }

      private:
        Tracer &t_;
        Span s_;
        uint64_t savedCurrent_ = 0, savedRun_ = 0;
        bool open_ = false;
    };

    static constexpr uint64_t kInherit = ~uint64_t{0};

    /**
     * Open a span. `run` 0 inherits the enclosing span's run id;
     * `parent` defaults to the span open on this thread.
     */
    Scope
    span(const char *layer, const char *name, uint64_t run = 0,
         uint64_t parent = kInherit)
    {
        return Scope(*this, layer, name, run, parent);
    }

    /** A fresh run id for one job or submit. */
    uint64_t newRun() { return nextRun_.fetch_add(1); }

    /** Write every span as a tab-separated line; false on I/O error. */
    bool write(const std::string &path) const;

  private:
    bool on_;
    mutable std::mutex mu_;
    std::vector<Span> spans_; // guarded by mu_
    std::atomic<uint64_t> nextId_{1};
    std::atomic<uint64_t> nextRun_{1};
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_HH

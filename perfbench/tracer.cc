#include "tracer.hh"

#include <chrono>
#include <fstream>

namespace perfbench
{

namespace
{
// The innermost open span and its run on this thread.
thread_local uint64_t tCurrent = 0;
thread_local uint64_t tRun = 0;
} // namespace

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Tracer::Scope::Scope(Tracer &t, const char *layer, const char *name,
                     uint64_t run, uint64_t parent)
    : t_(t)
{
    if (!t_.on_)
        return;
    s_.id = t_.nextId_.fetch_add(1);
    s_.parent = parent == kInherit ? tCurrent : parent;
    s_.run = run != 0 ? run : tRun;
    s_.layer = layer;
    s_.name = name;
    savedCurrent_ = tCurrent;
    savedRun_ = tRun;
    tCurrent = s_.id;
    tRun = s_.run;
    open_ = true;
    s_.t0 = nowNs();
}

int64_t
Tracer::Scope::stop()
{
    if (!open_)
        return 0;
    s_.t1 = nowNs();
    open_ = false;
    tCurrent = savedCurrent_;
    tRun = savedRun_;
    {
        std::lock_guard<std::mutex> g(t_.mu_);
        t_.spans_.push_back(s_);
    }
    return s_.t1 - s_.t0;
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream os(path);
    std::lock_guard<std::mutex> g(mu_);
    for (const Span &s : spans_)
        os << s.id << '\t' << s.parent << '\t' << s.run << '\t' << s.layer
           << '\t' << s.name << '\t' << s.t0 << '\t' << s.t1 << '\n';
    os.flush();
    return static_cast<bool>(os);
}

} // namespace perfbench

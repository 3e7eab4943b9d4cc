#include "base/logging.hh"

#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace gam
{

namespace
{

std::string
vformatString(const char *fmt, va_list ap)
{
    va_list ap_copy;
    va_copy(ap_copy, ap);
    int len = std::vsnprintf(nullptr, 0, fmt, ap_copy);
    va_end(ap_copy);
    if (len < 0)
        return "<format error>";
    std::vector<char> buf(static_cast<size_t>(len) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap);
    return std::string(buf.data(), static_cast<size_t>(len));
}

} // namespace

uint64_t
monotonicNanos()
{
    using Clock = std::chrono::steady_clock;
    static const Clock::time_point epoch = Clock::now();
    return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - epoch)
                        .count());
}

std::string
formatString(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string s = vformatString(fmt, ap);
    va_end(ap);
    return s;
}

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string s = vformatString(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "panic: %s\n", s.c_str());
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string s = vformatString(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "fatal: %s\n", s.c_str());
    std::exit(1);
}

} // namespace gam

#include "common/logging.hh"

#include <cstdio>
#include <cstdlib>

namespace pth
{

namespace
{

void
vreport(const char *prefix, const char *fmt, va_list ap)
{
    std::fprintf(stderr, "%s", prefix);
    std::vfprintf(stderr, fmt, ap);
    std::fprintf(stderr, "\n");
}

} // namespace

void
inform(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vreport("info: ", fmt, ap);
    va_end(ap);
}

void
warn(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vreport("warn: ", fmt, ap);
    va_end(ap);
}

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vreport("panic: ", fmt, ap);
    va_end(ap);
    std::abort();
}

} // namespace pth

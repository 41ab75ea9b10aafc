/**
 * @file
 * Launch-time environment knobs.
 *
 * PAGESIM_TRIALS, PAGESIM_WORKERS, PAGESIM_AUDIT_EVERY and
 * PAGESIM_METRICS are each read once per process through envKnob().
 * Unset or empty means "not set". A value the knob's parser rejects
 * stops the process with exit status 2 and a message listing the
 * accepted values: running on with a default instead would leave a
 * sweep with a trial count, pool or audit cadence nobody asked for,
 * and no sign of why.
 */

#ifndef PAGESIM_SIM_ENV_HH
#define PAGESIM_SIM_ENV_HH

#include <cstdio>
#include <cstdlib>
#include <optional>

namespace pagesim
{

/**
 * @p text as a whole number in [@p lo, @p hi] (strtol syntax, base 10,
 * nothing after the digits); nullopt for null, empty, non-numeric,
 * trailing-garbage or out-of-range text.
 */
inline std::optional<unsigned>
parseCount(const char *text, unsigned lo, unsigned hi)
{
    if (text == nullptr || *text == '\0')
        return std::nullopt;
    char *end = nullptr;
    const long n = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || n < static_cast<long>(lo) ||
        n > static_cast<long>(hi))
        return std::nullopt;
    return static_cast<unsigned>(n);
}

/**
 * The value of environment variable @p name through @p parse, which
 * maps the text to an std::optional that is empty when the text is not
 * valid. nullopt when @p name is unset or empty; on a value @p parse
 * rejects, prints @p name, the value and @p accepted to stderr and
 * exits with status 2.
 */
template <class Parse>
auto
envKnob(const char *name, const char *accepted, Parse &&parse)
    -> decltype(parse(name))
{
    const char *text = std::getenv(name);
    if (text == nullptr || *text == '\0')
        return std::nullopt;
    auto value = parse(text);
    if (!value) {
        std::fprintf(stderr, "pagesim: %s=%s is not valid; accepted: %s\n",
                     name, text, accepted);
        std::exit(2);
    }
    return value;
}

} // namespace pagesim

#endif // PAGESIM_SIM_ENV_HH

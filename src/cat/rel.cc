#include "cat/rel.hh"

#include "base/logging.hh"

namespace gam::cat
{

namespace
{

uint64_t
tailMask(size_t n)
{
    const size_t used = n & 63;
    return used == 0 ? ~uint64_t(0) : (uint64_t(1) << used) - 1;
}

} // anonymous namespace

// --------------------------------------------------------- EventSet

bool
EventSet::empty() const
{
    for (uint64_t w : w_)
        if (w)
            return false;
    return true;
}

size_t
EventSet::count() const
{
    size_t c = 0;
    for (uint64_t w : w_)
        c += size_t(__builtin_popcountll(w));
    return c;
}

EventSet
EventSet::operator|(const EventSet &o) const
{
    GAM_ASSERT(n_ == o.n_, "EventSet universe mismatch");
    EventSet r(n_);
    for (size_t i = 0; i < w_.size(); ++i)
        r.w_[i] = w_[i] | o.w_[i];
    return r;
}

EventSet &
EventSet::operator|=(const EventSet &o)
{
    GAM_ASSERT(n_ == o.n_, "EventSet universe mismatch");
    for (size_t i = 0; i < w_.size(); ++i)
        w_[i] |= o.w_[i];
    return *this;
}

EventSet
EventSet::operator&(const EventSet &o) const
{
    GAM_ASSERT(n_ == o.n_, "EventSet universe mismatch");
    EventSet r(n_);
    for (size_t i = 0; i < w_.size(); ++i)
        r.w_[i] = w_[i] & o.w_[i];
    return r;
}

EventSet
EventSet::minus(const EventSet &o) const
{
    GAM_ASSERT(n_ == o.n_, "EventSet universe mismatch");
    EventSet r(n_);
    for (size_t i = 0; i < w_.size(); ++i)
        r.w_[i] = w_[i] & ~o.w_[i];
    return r;
}

EventSet
EventSet::complement() const
{
    EventSet r(n_);
    for (size_t i = 0; i < w_.size(); ++i)
        r.w_[i] = ~w_[i];
    if (!r.w_.empty())
        r.w_.back() &= tailMask(n_);
    return r;
}

// -------------------------------------------------------------- Rel

Rel
Rel::identity(size_t n)
{
    Rel r(n);
    for (size_t i = 0; i < n; ++i)
        r.set(i, i);
    return r;
}

Rel
Rel::diag(const EventSet &s)
{
    Rel r(s.universe());
    s.forEach([&](size_t i) { r.set(i, i); });
    return r;
}

Rel
Rel::product(const EventSet &a, const EventSet &b)
{
    GAM_ASSERT(a.universe() == b.universe(),
               "product universe mismatch");
    Rel r(a.universe());
    a.forEach([&](size_t i) {
        for (size_t w = 0; w < r.wpr_; ++w)
            r.row(i)[w] = b.w_[w];
    });
    return r;
}

bool
Rel::empty() const
{
    for (uint64_t w : w_)
        if (w)
            return false;
    return true;
}

size_t
Rel::count() const
{
    size_t c = 0;
    for (uint64_t w : w_)
        c += size_t(__builtin_popcountll(w));
    return c;
}

Rel
Rel::operator|(const Rel &o) const
{
    GAM_ASSERT(n_ == o.n_, "Rel universe mismatch");
    Rel r(n_);
    for (size_t i = 0; i < w_.size(); ++i)
        r.w_[i] = w_[i] | o.w_[i];
    return r;
}

Rel
Rel::operator&(const Rel &o) const
{
    GAM_ASSERT(n_ == o.n_, "Rel universe mismatch");
    Rel r(n_);
    for (size_t i = 0; i < w_.size(); ++i)
        r.w_[i] = w_[i] & o.w_[i];
    return r;
}

Rel
Rel::minus(const Rel &o) const
{
    GAM_ASSERT(n_ == o.n_, "Rel universe mismatch");
    Rel r(n_);
    for (size_t i = 0; i < w_.size(); ++i)
        r.w_[i] = w_[i] & ~o.w_[i];
    return r;
}

Rel
Rel::complement() const
{
    Rel r(n_);
    for (size_t i = 0; i < w_.size(); ++i)
        r.w_[i] = ~w_[i];
    r.maskTail();
    return r;
}

Rel
Rel::compose(const Rel &o) const
{
    GAM_ASSERT(n_ == o.n_, "Rel universe mismatch");
    Rel r(n_);
    for (size_t i = 0; i < n_; ++i) {
        uint64_t *out = r.row(i);
        const uint64_t *mid = row(i);
        for (size_t w = 0; w < wpr_; ++w) {
            uint64_t bits = mid[w];
            while (bits) {
                const int b = __builtin_ctzll(bits);
                const uint64_t *jrow = o.row(w * 64 + size_t(b));
                for (size_t k = 0; k < wpr_; ++k)
                    out[k] |= jrow[k];
                bits &= bits - 1;
            }
        }
    }
    return r;
}

Rel
Rel::inverse() const
{
    Rel r(n_);
    for (size_t i = 0; i < n_; ++i) {
        const uint64_t *ri = row(i);
        for (size_t w = 0; w < wpr_; ++w) {
            uint64_t bits = ri[w];
            while (bits) {
                const int b = __builtin_ctzll(bits);
                r.set(w * 64 + size_t(b), i);
                bits &= bits - 1;
            }
        }
    }
    return r;
}

Rel
Rel::transitiveClosure() const
{
    Rel r = *this;
    for (size_t k = 0; k < n_; ++k) {
        const uint64_t *rk = r.row(k);
        // Copy row k so a row ORing into itself (k reaching k) is safe.
        std::vector<uint64_t> krow(rk, rk + wpr_);
        for (size_t i = 0; i < n_; ++i) {
            if (!r.test(i, k))
                continue;
            uint64_t *ri = r.row(i);
            for (size_t w = 0; w < wpr_; ++w)
                ri[w] |= krow[w];
        }
    }
    return r;
}

Rel
Rel::reflexiveTransitiveClosure() const
{
    return transitiveClosure() | identity(n_);
}

bool
Rel::irreflexive() const
{
    for (size_t i = 0; i < n_; ++i)
        if (test(i, i))
            return false;
    return true;
}

bool
Rel::acyclic() const
{
    return transitiveClosure().irreflexive();
}

void
Rel::addColumn(const EventSet &from, size_t j)
{
    GAM_ASSERT(from.universe() == n_, "addColumn universe mismatch");
    from.forEach([&](size_t i) { set(i, j); });
}

bool
Rel::addClosedEdge(size_t u, size_t v)
{
    if (u == v || test(v, u))
        return false;
    if (test(u, v))
        return true; // already implied
    const uint64_t *s = row(v);
    for (size_t x = 0; x < n_; ++x) {
        if (x != u && !test(x, u))
            continue;
        uint64_t *d = row(x);
        for (size_t w = 0; w < wpr_; ++w)
            d[w] |= s[w];
        set(x, v);
    }
    return true;
}

void
Rel::maskTail()
{
    if (wpr_ == 0)
        return;
    const uint64_t mask = tailMask(n_);
    for (size_t i = 0; i < n_; ++i)
        row(i)[wpr_ - 1] &= mask;
}

} // namespace gam::cat

// Generated by the Amplify pre-processor — do not edit.
//
// IMPORTANT: compile amplified translation units with -fno-lifetime-dse
// (GCC) or the equivalent. Shadow parking stores into an object whose
// lifetime is about to end; modern lifetime-based dead-store elimination
// would otherwise discard those stores. Compilers contemporary with the
// original tool (2001) performed no such optimization.
#ifndef AMPLIFY_RUNTIME_HPP
#define AMPLIFY_RUNTIME_HPP

#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <cstdio>
#include <new>
#include <mutex>

namespace amplify {

// Overhead-control parameters (0 = unlimited), from the pre-processor
// configuration (paper §5.2).
const size_t kMaxShadowBytes = 0;
const size_t kMaxPoolObjects = 0;
const bool   kHalfSizeRule   = true;

struct Stats {
    unsigned long pool_hits;
    unsigned long pool_misses;
    unsigned long shadow_hits;
    unsigned long shadow_misses;
    unsigned long dropped;
    unsigned long releases;
    unsigned long parked;
};

inline Stats& stats() {
    static Stats s = {0, 0, 0, 0, 0, 0, 0};
    return s;
}

// Two lines: a human-readable `amplify-stats k=v ...` summary, then an
// `amplify-stats-json` line carrying a `telemetry-v1` report (same wire
// names as the Rust telemetry crate: `pool_misses` maps to
// `fresh_allocs`), so C++-side and Rust-side stats can be diffed by the
// same tooling. Pool and shadow reuse are reported as two pool entries;
// lock probes are not instrumented here and report as zero.
inline void print_stats() {
    Stats& s = stats();
    std::printf("amplify-stats pool_hits=%lu pool_misses=%lu shadow_hits=%lu "
                "shadow_misses=%lu dropped=%lu releases=%lu parked=%lu\n",
                s.pool_hits, s.pool_misses, s.shadow_hits, s.shadow_misses,
                s.dropped, s.releases, s.parked);
    std::printf("amplify-stats-json {\"schema\":\"telemetry-v1\","
                "\"source\":\"amplify-runtime\",\"pools\":["
                "{\"name\":\"pool\",\"parked\":%lu,\"pool_hits\":%lu,"
                "\"fresh_allocs\":%lu,\"releases\":%lu,\"dropped\":%lu,"
                "\"failed_locks\":0,\"lock_acquisitions\":0},"
                "{\"name\":\"shadow\",\"parked\":0,\"pool_hits\":%lu,"
                "\"fresh_allocs\":%lu,\"releases\":0,\"dropped\":0,"
                "\"failed_locks\":0,\"lock_acquisitions\":0}],"
                "\"events\":[],\"histograms\":[],\"sim_runs\":[],"
                "\"native_runs\":[]}\n",
                s.parked, s.pool_hits, s.pool_misses, s.releases, s.dropped,
                s.shadow_hits, s.shadow_misses);
}

// Block layout: [size_t capacity][payload...]. Fresh payloads are zeroed so
// that shadow fields start out null (§3.2: "When a new Root object is
// allocated on the heap all shadows are set to 0").
inline void* alloc_raw(size_t n) {
    size_t cap = n < sizeof(void*) ? sizeof(void*) : n;
    char* base = static_cast<char*>(std::malloc(sizeof(size_t) + cap));
    *reinterpret_cast<size_t*>(base) = cap;
    void* p = base + sizeof(size_t);
    std::memset(p, 0, cap);
    return p;
}

inline size_t block_cap(void* p) {
    return *reinterpret_cast<size_t*>(static_cast<char*>(p) - sizeof(size_t));
}

inline void free_raw(void* p) {
    std::free(static_cast<char*>(p) - sizeof(size_t));
}

// Shadow revival: `new(fieldShadow) T(...)` resolves to the injected
// class-level operator new(size_t, void*), which calls this. The size
// check is the paper's "type checking to ensure that there is enough
// space for the new object".
inline void* place(size_t n, void* shadow) {
    if (shadow && block_cap(shadow) >= n) {
        stats().shadow_hits++;
        return shadow;
    }
    if (shadow)
        free_raw(shadow);
    stats().shadow_misses++;
    return alloc_raw(n);
}

// The custom realloc of §5.2: reuse the shadow block when the request is
// within [capacity/2, capacity]; repeated allocation then consumes at most
// twice the live memory.
inline void* array_realloc(void*& shadow, size_t count, size_t elem) {
    size_t need = count * elem;
    void* s = shadow;
    shadow = 0;
    if (s) {
        size_t cap = block_cap(s);
        if (need <= cap && (!kHalfSizeRule || need >= cap / 2)) {
            stats().shadow_hits++;
            return s;
        }
        free_raw(s);
    }
    stats().shadow_misses++;
    return alloc_raw(need);
}

// `delete[] buffer` → `bufferShadow = shadow_array(buffer)`. Oversized
// blocks are deleted as normal so one large allocation cannot pin a large
// chunk (§5.2).
inline void* shadow_array(void* p) {
    if (!p)
        return 0;
    if (kMaxShadowBytes && block_cap(p) > kMaxShadowBytes) {
        stats().dropped++;
        free_raw(p);
        return 0;
    }
    return p;
}

// Per-class pool parameters. The primary template is the untuned
// configuration every class starts from; for profile-guided builds the
// pre-processor emits one specialization per amplified class (after this
// namespace) carrying the offline tuner's winning knobs, so tuning changes
// exactly the classes the profile justified and nothing else.
template <class T>
struct PoolParams {
    // Parked-object cap for this class (0 = unlimited).
    static const size_t kMaxObjects = kMaxPoolObjects;
};

// One pool per class. Pools start empty; the free list is intrusive
// through the dead object's first word (regular fields are dead at that
// point; the shadow fields, which carry the parked structure, live at
// other offsets and are preserved).
template <class T>
struct Pool {
    static void*& head() {
        static void* h = 0;
        return h;
    }
    static size_t& count() {
        static size_t c = 0;
        return c;
    }
    static std::mutex& mu() { static std::mutex m; return m; }

    static void* alloc(size_t n) {
        {
        std::lock_guard<std::mutex> amplify_guard(mu());
            void*& h = head();
            if (h) {
                void* p = h;
                h = *static_cast<void**>(p);
                count()--;
                stats().pool_hits++;
                stats().parked--;
                return p;
            }
        }
        stats().pool_misses++;
        return alloc_raw(n);
    }

    static void release(void* p) {
        if (!p)
            return;
        std::lock_guard<std::mutex> amplify_guard(mu());
        if (PoolParams<T>::kMaxObjects && count() >= PoolParams<T>::kMaxObjects) {
            stats().dropped++;
            free_raw(p);
            return;
        }
        *static_cast<void**>(p) = head();
        head() = p;
        count()++;
        stats().releases++;
        stats().parked++;
    }

    // Return all parked objects to the system (the paper's "returning
    // memory from the pools to the operating system on demand").
    static size_t trim() {
        std::lock_guard<std::mutex> amplify_guard(mu());
        size_t n = 0;
        void*& h = head();
        while (h) {
            void* next = *static_cast<void**>(h);
            free_raw(h);
            h = next;
            n++;
        }
        count() = 0;
        stats().parked -= n;
        return n;
    }
};

} // namespace amplify

#endif // AMPLIFY_RUNTIME_HPP

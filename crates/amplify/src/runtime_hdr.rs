//! Generation of the self-contained C++ runtime header that rewritten
//! sources `#include`.
//!
//! The header implements, in plain C++:
//!
//! * `amplify::Pool<T>` — one free list per class behind the injected
//!   `operator new`/`delete` (intrusive links through the dead object's
//!   first word; the shadow fields live elsewhere in the object and are
//!   preserved, which is what keeps whole structures revivable);
//! * `amplify::place` — shadow revival with the paper's size check;
//! * `amplify::array_realloc` / `amplify::shadow_array` — the §5.2 custom
//!   realloc with the half-size rule and the maximum-shadow-size cap;
//! * `amplify::stats()` — counters the integration tests assert on.
//!
//! Every block carries a one-word capacity prefix, so size checks need no
//! platform `malloc_usable_size`.

use crate::config::AmplifyOptions;

/// Render the per-class `PoolParams` specializations for a tuned run: one
/// forward declaration at global scope (the amplified classes live there)
/// plus one specialization in `namespace amplify` per tuned class. Empty
/// when no tuning is configured or the tuning is the untuned default.
fn tuned_pool_params(options: &AmplifyOptions) -> String {
    let Some(tuning) = &options.pool_tuning else { return String::new() };
    if tuning.classes.is_empty() || tuning.is_default() {
        return String::new();
    }
    let mut out = String::from(
        "\n// Profile-guided pool parameters: the offline tuner (pool_tune,\n\
         // schema pool-tune-v1) evolved these against recorded workload traces;\n\
         // see BENCH_tuning.json for the tuned-vs-default fitness deltas.\n",
    );
    let max_objects = tuning.max_objects;
    for class in &tuning.classes {
        out.push_str(&format!(
            "class {class};\n\
             namespace amplify {{\n\
             template <>\n\
             struct PoolParams< ::{class} > {{\n\
             \x20   static const size_t kMaxObjects = {max_objects};\n\
             }};\n\
             }} // namespace amplify\n"
        ));
    }
    out
}

/// Render the runtime header for the given options.
pub(crate) fn generate(options: &AmplifyOptions) -> String {
    let max_shadow = options.max_shadow_bytes.unwrap_or(0);
    let max_pool = options.max_pool_objects.unwrap_or(0);
    let half_rule = if options.half_size_rule { "true" } else { "false" };
    let tuned_params = tuned_pool_params(options);
    let mutex_include = if options.threaded { "#include <mutex>\n" } else { "" };
    let (lock_member, lock_stmt) = if options.threaded {
        (
            "    static std::mutex& mu() { static std::mutex m; return m; }\n",
            "        std::lock_guard<std::mutex> amplify_guard(mu());\n",
        )
    } else {
        // Single-threaded build: the pre-processor removes all
        // unnecessary locks (§5.1).
        ("", "")
    };

    format!(
        r#"// Generated by the Amplify pre-processor — do not edit.
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
{mutex_include}
namespace amplify {{

// Overhead-control parameters (0 = unlimited), from the pre-processor
// configuration (paper §5.2).
const size_t kMaxShadowBytes = {max_shadow};
const size_t kMaxPoolObjects = {max_pool};
const bool   kHalfSizeRule   = {half_rule};

struct Stats {{
    unsigned long pool_hits;
    unsigned long pool_misses;
    unsigned long shadow_hits;
    unsigned long shadow_misses;
    unsigned long dropped;
    unsigned long releases;
    unsigned long parked;
}};

inline Stats& stats() {{
    static Stats s = {{0, 0, 0, 0, 0, 0, 0}};
    return s;
}}

// Two lines: a human-readable `amplify-stats k=v ...` summary, then an
// `amplify-stats-json` line carrying a `telemetry-v1` report (same wire
// names as the Rust telemetry crate: `pool_misses` maps to
// `fresh_allocs`), so C++-side and Rust-side stats can be diffed by the
// same tooling. Pool and shadow reuse are reported as two pool entries;
// lock probes are not instrumented here and report as zero.
inline void print_stats() {{
    Stats& s = stats();
    std::printf("amplify-stats pool_hits=%lu pool_misses=%lu shadow_hits=%lu "
                "shadow_misses=%lu dropped=%lu releases=%lu parked=%lu\n",
                s.pool_hits, s.pool_misses, s.shadow_hits, s.shadow_misses,
                s.dropped, s.releases, s.parked);
    std::printf("amplify-stats-json {{\"schema\":\"telemetry-v1\","
                "\"source\":\"amplify-runtime\",\"pools\":["
                "{{\"name\":\"pool\",\"parked\":%lu,\"pool_hits\":%lu,"
                "\"fresh_allocs\":%lu,\"releases\":%lu,\"dropped\":%lu,"
                "\"failed_locks\":0,\"lock_acquisitions\":0}},"
                "{{\"name\":\"shadow\",\"parked\":0,\"pool_hits\":%lu,"
                "\"fresh_allocs\":%lu,\"releases\":0,\"dropped\":0,"
                "\"failed_locks\":0,\"lock_acquisitions\":0}}],"
                "\"events\":[],\"histograms\":[],\"sim_runs\":[],"
                "\"native_runs\":[]}}\n",
                s.parked, s.pool_hits, s.pool_misses, s.releases, s.dropped,
                s.shadow_hits, s.shadow_misses);
}}

// Block layout: [size_t capacity][payload...]. Fresh payloads are zeroed so
// that shadow fields start out null (§3.2: "When a new Root object is
// allocated on the heap all shadows are set to 0").
inline void* alloc_raw(size_t n) {{
    size_t cap = n < sizeof(void*) ? sizeof(void*) : n;
    char* base = static_cast<char*>(std::malloc(sizeof(size_t) + cap));
    *reinterpret_cast<size_t*>(base) = cap;
    void* p = base + sizeof(size_t);
    std::memset(p, 0, cap);
    return p;
}}

inline size_t block_cap(void* p) {{
    return *reinterpret_cast<size_t*>(static_cast<char*>(p) - sizeof(size_t));
}}

inline void free_raw(void* p) {{
    std::free(static_cast<char*>(p) - sizeof(size_t));
}}

// Shadow revival: `new(fieldShadow) T(...)` resolves to the injected
// class-level operator new(size_t, void*), which calls this. The size
// check is the paper's "type checking to ensure that there is enough
// space for the new object".
inline void* place(size_t n, void* shadow) {{
    if (shadow && block_cap(shadow) >= n) {{
        stats().shadow_hits++;
        return shadow;
    }}
    if (shadow)
        free_raw(shadow);
    stats().shadow_misses++;
    return alloc_raw(n);
}}

// The custom realloc of §5.2: reuse the shadow block when the request is
// within [capacity/2, capacity]; repeated allocation then consumes at most
// twice the live memory.
inline void* array_realloc(void*& shadow, size_t count, size_t elem) {{
    size_t need = count * elem;
    void* s = shadow;
    shadow = 0;
    if (s) {{
        size_t cap = block_cap(s);
        if (need <= cap && (!kHalfSizeRule || need >= cap / 2)) {{
            stats().shadow_hits++;
            return s;
        }}
        free_raw(s);
    }}
    stats().shadow_misses++;
    return alloc_raw(need);
}}

// `delete[] buffer` → `bufferShadow = shadow_array(buffer)`. Oversized
// blocks are deleted as normal so one large allocation cannot pin a large
// chunk (§5.2).
inline void* shadow_array(void* p) {{
    if (!p)
        return 0;
    if (kMaxShadowBytes && block_cap(p) > kMaxShadowBytes) {{
        stats().dropped++;
        free_raw(p);
        return 0;
    }}
    return p;
}}

// Per-class pool parameters. The primary template is the untuned
// configuration every class starts from; for profile-guided builds the
// pre-processor emits one specialization per amplified class (after this
// namespace) carrying the offline tuner's winning knobs, so tuning changes
// exactly the classes the profile justified and nothing else.
template <class T>
struct PoolParams {{
    // Parked-object cap for this class (0 = unlimited).
    static const size_t kMaxObjects = kMaxPoolObjects;
}};

// One pool per class. Pools start empty; the free list is intrusive
// through the dead object's first word (regular fields are dead at that
// point; the shadow fields, which carry the parked structure, live at
// other offsets and are preserved).
template <class T>
struct Pool {{
    static void*& head() {{
        static void* h = 0;
        return h;
    }}
    static size_t& count() {{
        static size_t c = 0;
        return c;
    }}
{lock_member}
    static void* alloc(size_t n) {{
        {{
{lock_stmt}            void*& h = head();
            if (h) {{
                void* p = h;
                h = *static_cast<void**>(p);
                count()--;
                stats().pool_hits++;
                stats().parked--;
                return p;
            }}
        }}
        stats().pool_misses++;
        return alloc_raw(n);
    }}

    static void release(void* p) {{
        if (!p)
            return;
{lock_stmt}        if (PoolParams<T>::kMaxObjects && count() >= PoolParams<T>::kMaxObjects) {{
            stats().dropped++;
            free_raw(p);
            return;
        }}
        *static_cast<void**>(p) = head();
        head() = p;
        count()++;
        stats().releases++;
        stats().parked++;
    }}

    // Return all parked objects to the system (the paper's "returning
    // memory from the pools to the operating system on demand").
    static size_t trim() {{
{lock_stmt}        size_t n = 0;
        void*& h = head();
        while (h) {{
            void* next = *static_cast<void**>(h);
            free_raw(h);
            h = next;
            n++;
        }}
        count() = 0;
        stats().parked -= n;
        return n;
    }}
}};

}} // namespace amplify
{tuned_params}
#endif // AMPLIFY_RUNTIME_HPP
"#
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PoolTuning;

    #[test]
    fn threaded_header_has_mutex() {
        let h = generate(&AmplifyOptions::default());
        assert!(h.contains("#include <mutex>"));
        assert!(h.contains("std::lock_guard"));
    }

    #[test]
    fn single_threaded_header_has_no_locks() {
        let h = generate(&AmplifyOptions::single_threaded());
        assert!(!h.contains("mutex"));
        assert!(!h.contains("lock_guard"));
    }

    #[test]
    fn caps_are_embedded() {
        let h = generate(&AmplifyOptions::bgw());
        assert!(h.contains("kMaxShadowBytes = 65536"));
        assert!(h.contains("kMaxPoolObjects = 256"));
    }

    #[test]
    fn unlimited_is_zero() {
        let h = generate(&AmplifyOptions::default());
        assert!(h.contains("kMaxShadowBytes = 0"));
        assert!(h.contains("kMaxPoolObjects = 0"));
    }

    #[test]
    fn half_rule_toggle() {
        let mut o = AmplifyOptions::default();
        assert!(generate(&o).contains("kHalfSizeRule   = true"));
        o.half_size_rule = false;
        assert!(generate(&o).contains("kHalfSizeRule   = false"));
    }

    #[test]
    fn print_stats_emits_a_telemetry_v1_line() {
        let h = generate(&AmplifyOptions::default());
        assert!(h.contains("amplify-stats-json"));
        assert!(h.contains("\\\"schema\\\":\\\"telemetry-v1\\\""));
        // Every PoolSnapshot wire name must appear so the Rust-side
        // deserializer can parse the line (see telemetry::PoolSnapshot).
        for field in [
            "\\\"name\\\"",
            "\\\"parked\\\"",
            "\\\"pool_hits\\\"",
            "\\\"fresh_allocs\\\"",
            "\\\"releases\\\"",
            "\\\"dropped\\\"",
            "\\\"failed_locks\\\"",
            "\\\"lock_acquisitions\\\"",
        ] {
            assert!(h.contains(field), "missing wire field {field}");
        }
        // And every Report-level field.
        for field in [
            "\\\"source\\\"",
            "\\\"pools\\\"",
            "\\\"events\\\"",
            "\\\"histograms\\\"",
            "\\\"sim_runs\\\"",
            "\\\"native_runs\\\"",
        ] {
            assert!(h.contains(field), "missing report field {field}");
        }
    }

    #[test]
    fn header_is_guarded_and_balanced() {
        let h = generate(&AmplifyOptions::default());
        assert!(h.contains("#ifndef AMPLIFY_RUNTIME_HPP"));
        assert!(h.contains("#endif"));
        assert_eq!(h.matches('{').count(), h.matches('}').count());
    }

    fn tuned(max_objects: usize, classes: &[&str]) -> AmplifyOptions {
        AmplifyOptions {
            pool_tuning: Some(PoolTuning {
                max_objects,
                classes: classes.iter().map(|c| c.to_string()).collect(),
            }),
            ..AmplifyOptions::default()
        }
    }

    #[test]
    fn untuned_header_has_default_pool_params_and_no_specializations() {
        let h = generate(&AmplifyOptions::default());
        assert!(h.contains("struct PoolParams {"));
        assert!(h.contains("static const size_t kMaxObjects = kMaxPoolObjects;"));
        assert!(!h.contains("PoolParams< ::"), "no specializations without tuning");
    }

    #[test]
    fn tuned_header_emits_one_specialization_per_class() {
        let h = generate(&tuned(128, &["Car", "Engine"]));
        for class in ["Car", "Engine"] {
            assert!(h.contains(&format!("class {class};")), "{h}");
            assert!(h.contains(&format!("struct PoolParams< ::{class} > {{")), "{h}");
        }
        assert!(h.contains("kMaxObjects = 128;"));
        assert!(h.contains("BENCH_tuning.json"), "provenance comment expected");
        assert_eq!(h.matches('{').count(), h.matches('}').count());
    }

    #[test]
    fn tuned_zero_cap_inherits_the_global_cap() {
        // A zero cap specializes nothing: the class keeps the primary
        // template, which defers to the run-wide constant, so BGw-style
        // capped runs keep their cap on tuned classes too.
        let h = generate(&AmplifyOptions { max_pool_objects: Some(256), ..tuned(0, &["Car"]) });
        assert!(!h.contains("PoolParams< ::Car >"));
        assert!(h.contains("kMaxPoolObjects = 256"));
        assert!(h.contains("static const size_t kMaxObjects = kMaxPoolObjects;"));
    }

    #[test]
    fn default_equivalent_tuning_emits_no_specializations() {
        // Cap 0 IS the untuned configuration: emitting specializations for
        // it would only churn the header text.
        let h = generate(&tuned(0, &["Car"]));
        assert_eq!(h, generate(&AmplifyOptions::default()));
        // No classes listed: nothing to specialize either.
        let h = generate(&tuned(256, &[]));
        assert_eq!(h, generate(&AmplifyOptions::default()));
    }
}

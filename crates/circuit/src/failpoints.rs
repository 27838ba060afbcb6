//! Feature-gated fault-injection hooks for the chaos-testing harness.
//!
//! A *failpoint* is a named site in the pipeline — `parse`, `layout_trial`,
//! `route_step`, `pass`, `cache_commit`, `handler` — where a test or
//! benchmark can inject a fault: a panic or a delay, fired with a
//! configurable probability. Production code marks the site with a single
//! call:
//!
//! ```ignore
//! nassc_circuit::failpoints::hit("route_step");
//! ```
//!
//! With the `failpoints` cargo feature **off** (the default), `hit` is an
//! empty inline function — zero cost, nothing to configure. With the
//! feature **on**, each call is one relaxed atomic load while no site is
//! armed; an armed site rolls a deterministic per-site xorshift RNG and
//! fires its action when the roll lands under the configured probability.
//!
//! Sites are armed either programmatically (`arm`, `disarm_all` — present
//! only with the feature on, hence not doc-linked here) or
//! from the `NASSC_FAIL` environment variable at first use:
//!
//! ```text
//! NASSC_FAIL=route_step:panic:0.05,layout_trial:delay:50ms
//! ```
//!
//! i.e. a comma-separated list of `site:action:probability` clauses, where
//! `action` is `panic` or `delay:<ms>ms` (the delay clause carries its
//! duration in place of a probability suffix — see `parse_env` for the
//! exact grammar: `site:panic:<p>` or `site:delay:<ms>ms[:<p>]`, `p`
//! defaulting to 1).
//!
//! Injected panics carry the payload `"failpoint <site>"` so chaos tests
//! can tell injected faults from real bugs. `injections` counts fires
//! per site for assertions like "N faults were injected, N were contained".
//!
//! This module lives in `nassc-circuit` because it is the one crate every
//! pipeline layer (parser, layout, routing, session, daemon) already
//! depends on, and cargo feature unification means enabling
//! `nassc-circuit/failpoints` anywhere in a build turns the hooks on for
//! the whole dependency graph.

#[cfg(feature = "failpoints")]
mod imp {
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
    use std::time::Duration;

    /// The action an armed failpoint fires.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Action {
        /// Unwind with the payload `"failpoint <site>"`.
        Panic,
        /// Sleep for the given duration, then continue normally.
        Delay(Duration),
    }

    #[derive(Debug, Clone)]
    struct ArmedSite {
        action: Action,
        /// Fire probability in fixed-point out of `u32::MAX` (1.0 ≡ MAX).
        threshold: u32,
    }

    #[derive(Default)]
    struct Registry {
        sites: BTreeMap<String, ArmedSite>,
        /// Fires per site, for test assertions.
        injections: BTreeMap<String, u64>,
        /// Deterministic xorshift state shared by every site.
        rng: u64,
    }

    /// Fast-path gate: `false` means no site is armed and `hit` returns
    /// after a single relaxed load.
    static ANY_ARMED: AtomicBool = AtomicBool::new(false);
    /// Whether the lazy `NASSC_FAIL` parse has run. `hit` must force the
    /// registry init once: env-armed sites can only flip `ANY_ARMED` there,
    /// and nothing else touches the registry in an env-only configuration.
    static ENV_CHECKED: AtomicBool = AtomicBool::new(false);
    /// Total fires across all sites (cheap to read without the lock).
    static TOTAL_INJECTIONS: AtomicU64 = AtomicU64::new(0);

    fn registry() -> MutexGuard<'static, Registry> {
        static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
        let lock = REGISTRY.get_or_init(|| {
            let mut registry = Registry {
                rng: 0x9E37_79B9_7F4A_7C15,
                ..Registry::default()
            };
            if let Ok(spec) = std::env::var("NASSC_FAIL") {
                match parse_env(&spec) {
                    Ok(sites) => {
                        for (site, action, probability) in sites {
                            registry.sites.insert(
                                site,
                                ArmedSite {
                                    action,
                                    threshold: probability_to_threshold(probability),
                                },
                            );
                        }
                    }
                    Err(e) => eprintln!("warning: ignoring invalid NASSC_FAIL: {e}"),
                }
            }
            ANY_ARMED.store(!registry.sites.is_empty(), Ordering::Relaxed);
            Mutex::new(registry)
        });
        // Failpoints deliberately panic while the lock is *not* held (see
        // `hit`), but be poison-tolerant anyway: chaos tests must never
        // wedge on their own harness.
        lock.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn probability_to_threshold(probability: f64) -> u32 {
        (probability.clamp(0.0, 1.0) * u32::MAX as f64) as u32
    }

    /// xorshift64* — deterministic, seedless, good enough for fire rolls.
    fn next_roll(state: &mut u64) -> u32 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) as u32
    }

    /// Parses the `NASSC_FAIL` grammar: comma-separated
    /// `site:panic[:<p>]` or `site:delay:<ms>ms[:<p>]` clauses.
    pub fn parse_env(spec: &str) -> Result<Vec<(String, Action, f64)>, String> {
        let mut out = Vec::new();
        for clause in spec.split(',').filter(|c| !c.trim().is_empty()) {
            let parts: Vec<&str> = clause.trim().split(':').collect();
            let (site, rest) = parts
                .split_first()
                .ok_or_else(|| format!("empty clause in {clause:?}"))?;
            let parse_p = |s: &str| {
                s.parse::<f64>()
                    .ok()
                    .filter(|p| (0.0..=1.0).contains(p))
                    .ok_or_else(|| format!("bad probability {s:?} in {clause:?}"))
            };
            let (action, probability) = match rest {
                ["panic"] => (Action::Panic, 1.0),
                ["panic", p] => (Action::Panic, parse_p(p)?),
                ["delay", ms] | ["delay", ms, _] => {
                    let millis = ms
                        .strip_suffix("ms")
                        .and_then(|v| v.parse::<u64>().ok())
                        .ok_or_else(|| format!("bad delay {ms:?} in {clause:?} (want <n>ms)"))?;
                    let p = match rest {
                        ["delay", _, p] => parse_p(p)?,
                        _ => 1.0,
                    };
                    (Action::Delay(Duration::from_millis(millis)), p)
                }
                _ => return Err(format!("bad action in {clause:?} (want panic|delay:<n>ms)")),
            };
            out.push((site.to_string(), action, probability));
        }
        Ok(out)
    }

    /// Arms `site` to fire `action` with the given probability (clamped to
    /// `[0, 1]`), replacing any previous arming of the same site.
    pub fn arm(site: &str, action: Action, probability: f64) {
        let mut registry = registry();
        registry.sites.insert(
            site.to_string(),
            ArmedSite {
                action,
                threshold: probability_to_threshold(probability),
            },
        );
        ANY_ARMED.store(true, Ordering::Relaxed);
    }

    /// Disarms every site and clears the injection counters.
    pub fn disarm_all() {
        let mut registry = registry();
        registry.sites.clear();
        registry.injections.clear();
        ANY_ARMED.store(false, Ordering::Relaxed);
    }

    /// Fires per site since the last [`disarm_all`].
    pub fn injections() -> BTreeMap<String, u64> {
        registry().injections.clone()
    }

    /// Total fires across all sites since the last [`disarm_all`]... or
    /// rather process start — this counter is monotonic and survives
    /// `disarm_all`, so bench harnesses can diff before/after.
    pub fn total_injections() -> u64 {
        TOTAL_INJECTIONS.load(Ordering::Relaxed)
    }

    /// The fault-injection hook. No-op unless `site` is armed and its
    /// probability roll fires; then sleeps ([`Action::Delay`]) or unwinds
    /// with payload `"failpoint <site>"` ([`Action::Panic`]).
    pub fn hit(site: &str) {
        if !ANY_ARMED.load(Ordering::Relaxed) {
            if ENV_CHECKED.load(Ordering::Relaxed) {
                return;
            }
            drop(registry()); // first call: parse NASSC_FAIL, set ANY_ARMED
            ENV_CHECKED.store(true, Ordering::Relaxed);
            if !ANY_ARMED.load(Ordering::Relaxed) {
                return;
            }
        }
        let action = {
            let mut registry = registry();
            let Some(armed) = registry.sites.get(site).cloned() else {
                return;
            };
            if armed.threshold != u32::MAX && next_roll(&mut registry.rng) > armed.threshold {
                return;
            }
            *registry.injections.entry(site.to_string()).or_insert(0) += 1;
            TOTAL_INJECTIONS.fetch_add(1, Ordering::Relaxed);
            armed.action
            // Lock dropped here: the panic below must not poison the
            // registry.
        };
        match action {
            Action::Panic => panic!("failpoint {site}"),
            Action::Delay(duration) => std::thread::sleep(duration),
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        /// Registry state is process-global; serialize the tests touching it.
        fn guard() -> MutexGuard<'static, ()> {
            static LOCK: Mutex<()> = Mutex::new(());
            LOCK.lock().unwrap_or_else(PoisonError::into_inner)
        }

        #[test]
        fn unarmed_sites_do_nothing() {
            let _g = guard();
            disarm_all();
            hit("route_step");
            hit("never_registered");
        }

        #[test]
        fn armed_panic_fires_with_site_payload() {
            let _g = guard();
            disarm_all();
            arm("parse", Action::Panic, 1.0);
            let caught = std::panic::catch_unwind(|| hit("parse"));
            let payload = caught.expect_err("armed site must fire");
            let message = payload.downcast_ref::<String>().expect("string payload");
            assert_eq!(message, "failpoint parse");
            assert_eq!(injections().get("parse"), Some(&1));
            disarm_all();
        }

        #[test]
        fn zero_probability_never_fires() {
            let _g = guard();
            disarm_all();
            arm("pass", Action::Panic, 0.0);
            for _ in 0..100 {
                hit("pass");
            }
            assert!(!injections().contains_key("pass"));
            disarm_all();
        }

        #[test]
        fn partial_probability_fires_roughly_proportionally() {
            let _g = guard();
            disarm_all();
            arm("route_step", Action::Panic, 0.5);
            let mut fired = 0;
            for _ in 0..400 {
                if std::panic::catch_unwind(|| hit("route_step")).is_err() {
                    fired += 1;
                }
            }
            assert!((100..300).contains(&fired), "0.5 rate fired {fired}/400");
            disarm_all();
        }

        #[test]
        fn delay_action_sleeps_then_continues() {
            let _g = guard();
            disarm_all();
            arm(
                "layout_trial",
                Action::Delay(Duration::from_millis(20)),
                1.0,
            );
            let start = std::time::Instant::now();
            hit("layout_trial");
            assert!(start.elapsed() >= Duration::from_millis(15));
            disarm_all();
        }

        #[test]
        fn env_grammar_parses() {
            let parsed = parse_env("route_step:panic:0.05, layout_trial:delay:50ms").unwrap();
            assert_eq!(parsed.len(), 2);
            assert_eq!(parsed[0].0, "route_step");
            assert_eq!(parsed[0].1, Action::Panic);
            assert!((parsed[0].2 - 0.05).abs() < 1e-12);
            assert_eq!(parsed[1].1, Action::Delay(Duration::from_millis(50)));
            assert!((parsed[1].2 - 1.0).abs() < 1e-12);

            let with_p = parse_env("cache_commit:delay:5ms:0.25").unwrap();
            assert_eq!(with_p[0].1, Action::Delay(Duration::from_millis(5)));
            assert!((with_p[0].2 - 0.25).abs() < 1e-12);

            assert!(parse_env("site:explode").is_err());
            assert!(parse_env("site:panic:2.0").is_err());
            assert!(parse_env("site:delay:50").is_err());
            assert!(parse_env("").unwrap().is_empty());
        }
    }
}

#[cfg(feature = "failpoints")]
pub use imp::{arm, disarm_all, hit, injections, parse_env, total_injections, Action};

/// With the `failpoints` feature disabled, every hook compiles to nothing.
#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub fn hit(_site: &str) {}

//! The invariant lint rules (`cargo xtask lint`).
//!
//! Each rule encodes a cross-cutting correctness invariant of this
//! workspace that rustc/clippy cannot express:
//!
//! * **R1 `relaxed-ordering`** — `Ordering::Relaxed` is only permitted in
//!   `crates/telemetry` (whose counters carry a documented ordering
//!   argument, see `crates/telemetry/src/events.rs`) and in the vendored
//!   compat shims. Everywhere else a Relaxed access is presumed to be an
//!   unproven publication and must be Acquire/Release or stronger.
//! * **R2 `panic-path`** — no `.unwrap()` / `.expect(` in the engine's
//!   switch loop, socket threads, shard workers, or the link pipeline
//!   they share (`crates/engine/src/{engine,peer,shard,link}.rs`) or the observer's
//!   trace-assembly store (`crates/observer/src/assembly.rs`): a panic
//!   there poisons queue mutexes and takes down the whole node (a shard
//!   panic takes every link hashed onto that shard). On top of the
//!   whole-file set, the rule applies *scope-aware* to the observer's
//!   request-handler functions in `server.rs` (see [`PANIC_FREE_FNS`]) —
//!   a panic in a handler kills the scrape plane while the spawn-time
//!   control surface in the same file may still fail loudly. Error
//!   paths must degrade (drop the link, surface a telemetry event).
//! * **R3 `wall-clock`** — simnet-reachable crates must not call
//!   `std::thread::sleep` or `Instant::now`: simulated time comes from the
//!   ratelimit clock abstraction (`crates/ratelimit/src/clock.rs`).
//!   Individually justified real-time uses carry a
//!   `// xtask-lint: allow(wall-clock) — reason` waiver comment.
//! * **R4 `std-sync`** — crates with a `src/sync.rs` shim (`queue`,
//!   `telemetry`, `engine`, `observer`) must route every sync primitive
//!   through that module; a direct `std::sync` or `parking_lot` path
//!   elsewhere would silently escape both the loom model checker and
//!   the lockdep lock-order instrumentation.
//! * **R5 `scoped-unsafe`** — the workspace denies `unsafe_code`; the
//!   single sanctioned exception is `crates/gf256/src/simd.rs` (the
//!   SIMD kernel backends), which must carry the
//!   `xtask-lint: allow(unsafe-code)` waiver comment justifying its
//!   `#![allow(unsafe_code)]`. Any `unsafe` token or `allow(unsafe_code)`
//!   escape hatch anywhere else is rejected — widening the waiver set
//!   requires editing the rule table here, which is the review point.
//! * **R6 `no-blocking-in-shard`** — scope-aware: inside the `impl
//!   Shard` blocks of `crates/engine/src/shard.rs` and the `impl
//!   LinkEnv` steps of `crates/engine/src/link.rs` that a shard calls
//!   (code that runs on a reactor event-loop thread multiplexing many
//!   links), no call that can park the thread — sleeps, connects, accepts, joins, blocking
//!   channel receives, the queue's blocking `push_all` — and no
//!   `.lock()` of a mutex whose lock class is not marked `shard_safe`
//!   in the lockdep class registry. A shard that
//!   blocks stalls every link hashed onto it; the runtime counterpart is
//!   `lockdep::check_blocking`.
//! * **R7 `lock-class-declared`** — in sync-shimmed crates, every
//!   `Mutex::new(` / `RwLock::new(` outside `src/sync.rs` must name a
//!   lock class declared in `crates/compat/lockdep/src/classes.rs`
//!   (`&classes::NAME`) as its first argument. The registry (compiled
//!   into xtask, so the two can never skew) is the single review point
//!   for adding a lock, and gives lockdep its stable class identities.
//! * **R8 `wake-from-edge`** — scope-aware: in `crates/engine`, the
//!   engine's two pure wake-up events, `ControlEvent::DataAvailable` and
//!   `ControlEvent::SendSpace`, may be constructed only inside the
//!   functions that install the link buffers' edge hooks
//!   (`wake_on_data`, `wake_on_space` in `link.rs`). The queue observes
//!   its empty and full edges under its own lock; a worker that decides
//!   for itself when the engine needs waking re-creates the race in
//!   which the buffer is drained between its look and its push, and the
//!   wake-up is lost. Matching the events (`=>` arms, `if let`) is fine.
//! * **R9 `one-switch-state`** — the switch state both runtimes share
//!   (the per-application route table behind the `BrokenSource` domino
//!   and a callback's staged effects) lives once, in
//!   `crates/api/src/switch.rs`. A `struct StagedEffects`, `struct
//!   AppRoute` or `struct AppRoutes` anywhere else under `crates/`, or
//!   the identifiers `app_upstreams` / `app_downstreams` of the engine's
//!   former second copy, is rejected: two copies of one domino rule
//!   drift (they already had, in notification order and in what they
//!   counted).
//!
//! All rules skip `#[cfg(test)]` items, `tests/` and `benches/`
//! directories: test code may sleep, unwrap, and race however it likes.
//! R6/R7/R8 lean on the structural scope pass in [`crate::scan`]; the
//! rest are lexical.

use crate::scan::{mask_source, scope_tree, test_line_flags, Scope, ScopeKind, ScopeTree};
use std::collections::BTreeSet;

/// One lint finding, pointing at a file:line.
#[derive(Debug, PartialEq, Eq)]
pub struct Violation {
    /// Rule id, e.g. `relaxed-ordering`.
    pub rule: &'static str,
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description of the invariant broken.
    pub msg: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "error[{}]: {}\n  --> {}:{}",
            self.rule, self.msg, self.file, self.line
        )
    }
}

/// Crates whose code can run under the simnet virtual clock; wall-clock
/// calls there would diverge real and simulated time (rule R3).
const SIMNET_REACHABLE: &[&str] = &[
    "crates/message/",
    "crates/api/",
    "crates/ratelimit/",
    "crates/queue/",
    "crates/telemetry/",
    "crates/simnet/",
];

/// The one sanctioned wall-clock site: the clock abstraction itself.
const CLOCK_ABSTRACTION: &str = "crates/ratelimit/src/clock.rs";

/// Crates with a `src/sync.rs` shim module (rules R4/R7): queue and
/// telemetry gate loom behind theirs; all four route locks through the
/// lockdep wrappers.
const SYNC_SHIMMED: &[&str] = &[
    "crates/queue/",
    "crates/telemetry/",
    "crates/engine/",
    "crates/observer/",
];

/// Files where panics take the whole node down (rule R2): the switch
/// loop, the blocking dialer/receiver/sender threads, the reactor shard
/// workers (a panicking shard strands every link hashed onto it, not
/// just one), the link pipeline both of those run every batch through,
/// and the observer's trace-assembly store (fed by every
/// node's spans; a panic there kills the collection plane).
const PANIC_FREE_FILES: &[&str] = &[
    "crates/engine/src/engine.rs",
    "crates/engine/src/peer.rs",
    "crates/engine/src/shard.rs",
    "crates/engine/src/link.rs",
    "crates/observer/src/assembly.rs",
];

/// Rule R2, scope-aware: files where only the listed *functions* must
/// be panic-free. `server.rs` mixes the request/scrape path (these
/// functions, running on accept/poll threads where a panic silently
/// kills the scrape plane) with spawn-time control-surface methods that
/// are allowed to fail loudly in the caller's thread.
const PANIC_FREE_FNS: &[(&str, &[&str])] = &[(
    "crates/observer/src/server.rs",
    &[
        "send_one_shot",
        "accept_loop",
        "serve_connection",
        "serve_observer_scrape",
        "render_observer_prometheus",
        "poll_loop",
    ],
)];

/// Rule R6: `(file, impl target)` pairs whose methods run on reactor
/// shard event-loop threads. The target is matched whole-word against
/// structural impl headers, so `impl Shard` and `impl Drop for Shard`
/// are covered while `impl ShardPool` (caller-side control surface,
/// where joining on shutdown is correct) is not. The link pipeline's
/// steps are `impl LinkEnv` methods that the shard loop calls per batch.
const SHARD_LOOP_SCOPES: &[(&str, &str)] = &[
    ("crates/engine/src/shard.rs", "Shard"),
    ("crates/engine/src/link.rs", "LinkEnv"),
];

/// Rule R6: call fragments that can park the calling thread.
const SHARD_BLOCKING_PATTERNS: &[&str] = &[
    "thread::sleep",
    ".accept(",
    "::connect(",
    "::connect_timeout(",
    ".connect(",
    ".connect_timeout(",
    ".join()",
    ".recv()",
    ".recv_timeout(",
    ".wait(",
    // The blocking batch push parks while the queue is full; a shard
    // hands a batch over with the non-blocking `push_batch`.
    ".push_all(",
];

/// Rule R8: the engine's pure wake-up events, and the only functions
/// that may construct them — the ones hanging them on a link buffer's
/// edge hooks.
const WAKE_EVENTS: &[&str] = &["ControlEvent::DataAvailable", "ControlEvent::SendSpace"];
const WAKE_HOOK_FNS: &[&str] = &["wake_on_data", "wake_on_space"];

/// Rule R9: the one home of the shared switch state, the structs only it
/// may define, and the identifiers of the copy it replaced.
const SWITCH_STATE_HOME: &str = "crates/api/src/switch.rs";
const SWITCH_STATE_STRUCTS: &[&str] = &["StagedEffects", "AppRoute", "AppRoutes"];
const SWITCH_STATE_IDENTS: &[&str] = &["app_upstreams", "app_downstreams"];

/// The waiver marker recognized by R3. Must appear in a comment on the
/// violating line or one of the three lines above it, followed by a reason.
const WALL_CLOCK_WAIVER: &str = "xtask-lint: allow(wall-clock)";

/// The only files allowed to contain `unsafe` (rule R5). Each must carry
/// [`UNSAFE_WAIVER`] in a comment; extending this list is the deliberate
/// review point for any new unsafe surface.
const UNSAFE_WAIVED_FILES: &[&str] = &["crates/gf256/src/simd.rs"];

/// The waiver marker an unsafe-waived file must carry (rule R5).
const UNSAFE_WAIVER: &str = "xtask-lint: allow(unsafe-code)";

/// The lock-class registry source, compiled into the xtask binary so
/// the linter and the runtime can never disagree about what is
/// declared (cargo rebuilds xtask whenever the registry changes).
const LOCK_CLASSES_SRC: &str = include_str!("../../compat/lockdep/src/classes.rs");

/// The lock-class registry as the linter sees it (rules R6/R7), parsed
/// from `crates/compat/lockdep/src/classes.rs`.
pub struct ClassTable {
    /// Names declared as `pub static NAME: LockClass`.
    pub declared: BTreeSet<String>,
    /// Union of the `fields` lists of classes with `shard_safe: true` —
    /// the only fields a shard event-loop method may `.lock()`.
    pub shard_safe_fields: BTreeSet<String>,
}

impl ClassTable {
    /// Parses `pub static NAME: LockClass = LockClass { ... };` items.
    /// The registry file is plain data by construction (lockdep's own
    /// docs require it), so field extraction can be textual: each body
    /// runs to the next `};`.
    pub fn parse(src: &str) -> ClassTable {
        let mut declared = BTreeSet::new();
        let mut shard_safe_fields = BTreeSet::new();
        let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
        let mut search = 0;
        while let Some(pos) = src[search..].find("pub static ") {
            let name_start = search + pos + "pub static ".len();
            let name: String = src[name_start..].chars().take_while(|c| is_ident(*c)).collect();
            search = name_start + name.len();
            let rest = src[search..].trim_start();
            let Some(rest) = rest.strip_prefix(':') else { continue };
            // `pub static ALL: &[&LockClass]` is the index, not a class.
            if !rest.trim_start().starts_with("LockClass") || name.is_empty() {
                continue;
            }
            declared.insert(name);
            let Some(body_open) = src[search..].find('{') else { continue };
            let body_start = search + body_open + 1;
            let Some(body_len) = src[body_start..].find("};") else { continue };
            let body = &src[body_start..body_start + body_len];
            search = body_start + body_len;
            if !body.contains("shard_safe: true") {
                continue;
            }
            // fields: &["a", "b"],
            let Some(fields_at) = body.find("fields:") else { continue };
            let fields = &body[fields_at..];
            let list_end = fields.find(']').unwrap_or(fields.len());
            let mut chars = fields[..list_end].chars();
            while chars.any(|c| c == '"') {
                let field: String = chars.by_ref().take_while(|c| *c != '"').collect();
                if !field.is_empty() {
                    shard_safe_fields.insert(field);
                }
            }
        }
        ClassTable {
            declared,
            shard_safe_fields,
        }
    }
}

/// The compiled-in registry, parsed once.
fn class_table() -> &'static ClassTable {
    static TABLE: std::sync::OnceLock<ClassTable> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| ClassTable::parse(LOCK_CLASSES_SRC))
}

/// Paths exempt from every rule: vendored shims (they *implement* the
/// primitives the rules guard), integration tests, benches, and xtask
/// itself (whose rule tables and tests spell out the banned patterns).
fn path_exempt(rel: &str) -> bool {
    rel.starts_with("crates/compat/")
        || rel.starts_with("crates/xtask/")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.contains("/examples/")
}

/// Lints one file's source, given its workspace-relative path. Pure so the
/// self-tests can feed deliberate violations without touching the tree.
pub fn lint_source(rel: &str, src: &str) -> Vec<Violation> {
    let rel = rel.replace('\\', "/");
    if path_exempt(&rel) || !rel.ends_with(".rs") {
        return Vec::new();
    }
    let masked = mask_source(src);
    let in_test = test_line_flags(&masked);
    let scopes = scope_tree(&masked);
    let raw_lines: Vec<&str> = src.lines().collect();
    let mut out = Vec::new();

    // R5 (file level): a waived file must document why it is waived.
    let unsafe_waived = UNSAFE_WAIVED_FILES.contains(&rel.as_str());
    if unsafe_waived && !src.contains(UNSAFE_WAIVER) {
        out.push(Violation {
            rule: "scoped-unsafe",
            file: rel.clone(),
            line: 1,
            msg: format!(
                "unsafe-waived file is missing its `// {UNSAFE_WAIVER} — reason` \
                 waiver comment"
            ),
        });
    }

    for (idx, line) in masked.lines().enumerate() {
        if in_test.get(idx).copied().unwrap_or(false) {
            continue;
        }
        let lineno = idx + 1;

        // R1: Relaxed ordering outside the telemetry crate.
        if line.contains("Ordering::Relaxed") && !rel.starts_with("crates/telemetry/") {
            out.push(Violation {
                rule: "relaxed-ordering",
                file: rel.clone(),
                line: lineno,
                msg: "Ordering::Relaxed outside crates/telemetry; use Acquire/Release \
                      or move the documented-Relaxed pattern into telemetry"
                    .into(),
            });
        }

        // R2: panic paths in the engine switch loop.
        if PANIC_FREE_FILES.contains(&rel.as_str())
            && (line.contains(".unwrap()") || line.contains(".expect("))
        {
            out.push(Violation {
                rule: "panic-path",
                file: rel.clone(),
                line: lineno,
                msg: "unwrap()/expect() in the engine switch loop; a panic here poisons \
                      queue locks — degrade instead (drop link, emit telemetry event)"
                    .into(),
            });
        }

        // R3: wall-clock time in simnet-reachable crates.
        if SIMNET_REACHABLE.iter().any(|c| rel.starts_with(c))
            && rel != CLOCK_ABSTRACTION
            && (line.contains("thread::sleep") || line.contains("Instant::now"))
            && !has_waiver(&raw_lines, idx)
        {
            out.push(Violation {
                rule: "wall-clock",
                file: rel.clone(),
                line: lineno,
                msg: format!(
                    "wall-clock call in a simnet-reachable crate; route time through \
                     {CLOCK_ABSTRACTION} or add `// {WALL_CLOCK_WAIVER} — reason`"
                ),
            });
        }

        // R5: unsafe code outside the waived SIMD module. The workspace
        // lint table already denies `unsafe_code`, but an inner
        // `allow(unsafe_code)` silently overrides it — this catches both
        // the keyword and the escape hatch. `forbid(unsafe_code)` /
        // `deny(unsafe_code)` mention the lint name, not the keyword,
        // and don't match.
        if !unsafe_waived {
            if contains_word(line, "unsafe") {
                out.push(Violation {
                    rule: "scoped-unsafe",
                    file: rel.clone(),
                    line: lineno,
                    msg: "`unsafe` outside the waived SIMD module \
                          (crates/gf256/src/simd.rs); keep unsafe scoped there or \
                          extend UNSAFE_WAIVED_FILES with a waiver comment"
                        .into(),
                });
            }
            if line.contains("allow(unsafe_code)") {
                out.push(Violation {
                    rule: "scoped-unsafe",
                    file: rel.clone(),
                    line: lineno,
                    msg: "allow(unsafe_code) outside the waived SIMD module silently \
                          overrides the workspace-wide deny; only \
                          crates/gf256/src/simd.rs may waive it"
                        .into(),
                });
            }
        }

        // R4: std::sync / parking_lot bypassing the crate's sync shim.
        if SYNC_SHIMMED.iter().any(|c| rel.starts_with(c))
            && !rel.ends_with("/src/sync.rs")
            && (line.contains("std::sync") || contains_word(line, "parking_lot"))
        {
            out.push(Violation {
                rule: "std-sync",
                file: rel.clone(),
                line: lineno,
                msg: "direct std::sync/parking_lot use in a sync-shimmed crate; import \
                      via the crate's `sync` module so loom models and lockdep \
                      instrumentation cover it"
                    .into(),
            });
        }

        // R2, scope-aware: panic paths in listed handler functions.
        if let Some((_, fns)) = PANIC_FREE_FNS.iter().find(|(f, _)| *f == rel.as_str()) {
            if (line.contains(".unwrap()") || line.contains(".expect("))
                && scopes
                    .innermost(lineno, ScopeKind::Fn)
                    .is_some_and(|f| fns.contains(&f.name.as_str()) && !test_attred(f))
            {
                out.push(Violation {
                    rule: "panic-path",
                    file: rel.clone(),
                    line: lineno,
                    msg: "unwrap()/expect() in an observer request handler; a panic \
                          here silently kills the scrape plane — degrade to an error \
                          response instead"
                        .into(),
                });
            }
        }

        // R8: wake-up events built outside the hook installers.
        if rel.starts_with("crates/engine/") {
            for event in WAKE_EVENTS {
                if constructs(line, event)
                    && !scopes
                        .enclosing(lineno)
                        .iter()
                        .any(|s| s.kind == ScopeKind::Fn && WAKE_HOOK_FNS.contains(&s.name.as_str()))
                {
                    out.push(Violation {
                        rule: "wake-from-edge",
                        file: rel.clone(),
                        line: lineno,
                        msg: format!(
                            "`{event}` constructed outside {WAKE_HOOK_FNS:?}; the engine's \
                             wake-ups come from the link buffer's own empty/full edge \
                             (observed under its lock), never from a worker's own look \
                             at the buffer — install the hook instead"
                        ),
                    });
                }
            }
        }

        // R9: a second copy of the shared switch state.
        let copied = SWITCH_STATE_STRUCTS
            .iter()
            .find(|name| defines_struct(line, name))
            .map(|name| format!("`struct {name}`"))
            .or_else(|| {
                let ident = SWITCH_STATE_IDENTS
                    .iter()
                    .find(|i| contains_word(line, i))?;
                Some(format!("`{ident}`"))
            });
        if let Some(what) = copied.filter(|_| rel != SWITCH_STATE_HOME) {
            out.push(Violation {
                rule: "one-switch-state",
                file: rel.clone(),
                line: lineno,
                msg: format!(
                    "{what} outside {SWITCH_STATE_HOME}; both runtimes share one route \
                     table and one staging area (`AppRoutes`, `StagedEffects`) — use \
                     them, not a copy"
                ),
            });
        }

        // R6: blocking calls on a shard event-loop thread.
        if let Some((_, target)) = SHARD_LOOP_SCOPES.iter().find(|(f, _)| *f == rel.as_str()) {
            if in_shard_scope(&scopes, lineno, target) {
                for pat in SHARD_BLOCKING_PATTERNS {
                    if line.contains(pat) {
                        out.push(Violation {
                            rule: "no-blocking-in-shard",
                            file: rel.clone(),
                            line: lineno,
                            msg: format!(
                                "`{pat}` inside `impl {target}` runs on a reactor \
                                 event-loop thread and can park it, stalling every \
                                 link hashed onto the shard; move the blocking work \
                                 to a control-surface method or a dedicated thread"
                            ),
                        });
                    }
                }
            }
        }
    }

    // R6, lock half (positional: method chains wrap `.lock()` onto its
    // own line): every mutex a shard method locks must belong to a
    // shard_safe lock class.
    if let Some((_, target)) = SHARD_LOOP_SCOPES.iter().find(|(f, _)| *f == rel.as_str()) {
        let mut search = 0;
        while let Some(pos) = masked[search..].find(".lock()") {
            let at = search + pos;
            search = at + ".lock()".len();
            let lineno = line_of(&masked, at);
            if in_test.get(lineno - 1).copied().unwrap_or(false)
                || !in_shard_scope(&scopes, lineno, target)
            {
                continue;
            }
            let field = receiver_field(&masked, at);
            let safe = field
                .as_deref()
                .is_some_and(|f| class_table().shard_safe_fields.contains(f));
            if !safe {
                let who = field
                    .map(|f| format!("`.lock()` on field `{f}`"))
                    .unwrap_or_else(|| "`.lock()` on an unrecognized receiver".into());
                out.push(Violation {
                    rule: "no-blocking-in-shard",
                    file: rel.clone(),
                    line: lineno,
                    msg: format!(
                        "{who} inside `impl {target}`: its lock class is not marked \
                         shard_safe in crates/compat/lockdep/src/classes.rs — a \
                         contended acquisition parks the event loop; mark the class \
                         shard_safe (with justification) or move the access off-shard"
                    ),
                });
            }
        }
    }

    // R7: shimmed lock constructors must name a declared lock class.
    if SYNC_SHIMMED.iter().any(|c| rel.starts_with(c)) && !rel.ends_with("/src/sync.rs") {
        for pat in ["Mutex::new(", "RwLock::new("] {
            let mut search = 0;
            while let Some(pos) = masked[search..].find(pat) {
                let at = search + pos;
                search = at + pat.len();
                // Whole-word: `ShardMutex::new(` is someone else's type.
                if at > 0 {
                    let b = masked.as_bytes()[at - 1];
                    if b.is_ascii_alphanumeric() || b == b'_' {
                        continue;
                    }
                }
                let lineno = line_of(&masked, at);
                if in_test.get(lineno - 1).copied().unwrap_or(false) {
                    continue;
                }
                let args = &masked[at + pat.len()..];
                let end = args
                    .char_indices()
                    .find(|(_, c)| *c == ',' || *c == ')')
                    .map(|(i, _)| i)
                    .unwrap_or_else(|| args.len().min(200));
                match parse_class_ref(&args[..end]) {
                    Some(ident) if class_table().declared.contains(&ident) => {}
                    Some(ident) => out.push(Violation {
                        rule: "lock-class-declared",
                        file: rel.clone(),
                        line: lineno,
                        msg: format!(
                            "lock constructor names `classes::{ident}`, which is not \
                             declared in crates/compat/lockdep/src/classes.rs; add \
                             the class to the registry (the review point for new \
                             locks)"
                        ),
                    }),
                    None => out.push(Violation {
                        rule: "lock-class-declared",
                        file: rel.clone(),
                        line: lineno,
                        msg: "lock constructor in a sync-shimmed crate must pass \
                              `&classes::NAME` (a class declared in \
                              crates/compat/lockdep/src/classes.rs) as its first \
                              argument so lockdep can key its order graph"
                            .into(),
                    }),
                }
            }
        }
    }
    out
}

/// Whether `line` declares `struct <name>` (whole word, any visibility).
fn defines_struct(line: &str, name: &str) -> bool {
    let words: Vec<&str> = line.split_whitespace().collect();
    words.windows(2).any(|w| {
        w[0] == "struct"
            && w[1]
                .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .next()
                == Some(name)
    })
}

/// 1-based line number of byte offset `at`.
fn line_of(masked: &str, at: usize) -> usize {
    masked[..at].bytes().filter(|b| *b == b'\n').count() + 1
}

/// Whether `line` is inside an impl block whose target names `target`
/// as a whole word (`impl Shard`, `impl Drop for Shard` — but not
/// `impl ShardPool`), excluding test-attributed functions.
fn in_shard_scope(scopes: &ScopeTree, line: usize, target: &str) -> bool {
    scopes
        .innermost(line, ScopeKind::Impl)
        .is_some_and(|s| contains_word(&s.name, target))
        && !scopes.innermost(line, ScopeKind::Fn).is_some_and(test_attred)
}

/// Defense in depth for the scope-aware rules: a bare `#[test]` fn
/// outside a `#[cfg(test)]` module evades the lexical line flags, but
/// not its captured attributes.
fn test_attred(scope: &Scope) -> bool {
    scope
        .attrs
        .iter()
        .any(|a| a == "#[test]" || a.contains("cfg(test"))
}

/// Walks back from the `.` of a `.lock()` call over a (possibly
/// line-wrapped) field chain and returns the final field name:
/// `self.signal.dirty_send.lock()` → `dirty_send`. Returns `None` for
/// computed receivers like `(expr).lock()`.
fn receiver_field(masked: &str, dot: usize) -> Option<String> {
    let bytes = masked.as_bytes();
    let is_ident = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    let mut j = dot;
    while j > 0 && bytes[j - 1].is_ascii_whitespace() {
        j -= 1;
    }
    let end = j;
    while j > 0 && is_ident(bytes[j - 1]) {
        j -= 1;
    }
    if j == end {
        return None;
    }
    let field = &masked[j..end];
    if field.starts_with(|c: char| c.is_ascii_digit()) {
        return None;
    }
    Some(field.to_string())
}

/// Parses a `&classes::NAME` first argument (optionally via the crate
/// shim or the lockdep crate: `&sync::classes::X`, `&lockdep::classes::X`).
fn parse_class_ref(arg: &str) -> Option<String> {
    let s = arg.trim().strip_prefix('&')?.trim_start();
    let s = s.strip_prefix("crate::").unwrap_or(s);
    let s = s.strip_prefix("sync::").unwrap_or(s);
    let s = s.strip_prefix("lockdep::").unwrap_or(s);
    let s = s.strip_prefix("classes::")?;
    let ident: String = s
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    if ident.is_empty() {
        None
    } else {
        Some(ident)
    }
}

/// Whether `line` builds the unit variant `path` rather than matching
/// it: some whole-word occurrence is followed by neither `=>` / `|` (a
/// match arm) nor a lone `=` (`if let`, `let … else`).
fn constructs(line: &str, path: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = line[start..].find(path) {
        let end = start + pos + path.len();
        start = end;
        let rest = line[end..].trim_start();
        if rest.starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_') {
            continue; // a longer name
        }
        let pattern = rest.starts_with("=>")
            || rest.starts_with('|')
            || (rest.starts_with('=') && !rest.starts_with("=="));
        if !pattern {
            return true;
        }
    }
    false
}

/// Whole-word match: `word` not flanked by identifier characters. Keeps
/// R5 from tripping on `unsafe_code` inside `forbid(unsafe_code)`.
fn contains_word(line: &str, word: &str) -> bool {
    let bytes = line.as_bytes();
    let mut start = 0;
    while let Some(pos) = line[start..].find(word) {
        let i = start + pos;
        let ident = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
        let before_ok = i == 0 || !ident(bytes[i - 1]);
        let j = i + word.len();
        let after_ok = j >= bytes.len() || !ident(bytes[j]);
        if before_ok && after_ok {
            return true;
        }
        start = j;
    }
    false
}

/// R3 waiver: the marker comment on the flagged line or within the three
/// lines above it (waivers are prose comments, so they are looked up in
/// the *unmasked* source).
fn has_waiver(raw_lines: &[&str], idx: usize) -> bool {
    let lo = idx.saturating_sub(3);
    raw_lines[lo..=idx.min(raw_lines.len().saturating_sub(1))]
        .iter()
        .any(|l| l.contains(WALL_CLOCK_WAIVER))
}

/// Walks the workspace's `crates/` tree and lints every Rust file.
/// Returns all violations, sorted by path then line.
pub fn lint_workspace(root: &std::path::Path) -> std::io::Result<Vec<Violation>> {
    let mut files = Vec::new();
    collect_rs_files(&root.join("crates"), &mut files)?;
    files.sort();
    let mut out = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(&path)?;
        out.extend(lint_source(&rel, &src));
    }
    Ok(out)
}

fn collect_rs_files(
    dir: &std::path::Path,
    out: &mut Vec<std::path::PathBuf>,
) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().map(|n| n.to_string_lossy().to_string());
        if path.is_dir() {
            if name.as_deref() == Some("target") {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    // The acceptance-criterion self-test: a deliberate violation is
    // rejected with a file:line diagnostic.
    #[test]
    fn deliberate_relaxed_violation_is_rejected_with_location() {
        let src = "use core::sync::atomic::Ordering;\n\
                   fn f(a: &core::sync::atomic::AtomicU64) {\n\
                   \x20   a.load(Ordering::Relaxed);\n\
                   }\n";
        let v = lint_source("crates/engine/src/handle.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "relaxed-ordering");
        assert_eq!(v[0].file, "crates/engine/src/handle.rs");
        assert_eq!(v[0].line, 3);
        let rendered = v[0].to_string();
        assert!(
            rendered.contains("crates/engine/src/handle.rs:3"),
            "diagnostic must carry file:line, got: {rendered}"
        );
    }

    #[test]
    fn relaxed_is_allowed_in_telemetry_and_in_comments() {
        let src = "// discussing Ordering::Relaxed is fine\n\
                   a.load(Ordering::Relaxed);\n";
        assert!(lint_source("crates/telemetry/src/metrics.rs", src).is_empty());
        let commented = "// a.load(Ordering::Relaxed)\nlet s = \"Ordering::Relaxed\";\n";
        assert!(lint_source("crates/queue/src/ring.rs", commented).is_empty());
    }

    #[test]
    fn relaxed_in_cfg_test_module_is_exempt() {
        let src = "fn prod() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   \x20   fn t(a: &A) { a.load(Ordering::Relaxed); }\n\
                   }\n";
        assert!(lint_source("crates/engine/src/engine.rs", src).is_empty());
    }

    #[test]
    fn unwrap_in_engine_switch_loop_is_rejected() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let v = lint_source("crates/engine/src/engine.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "panic-path");
        assert_eq!(v[0].line, 1);
        // The same code elsewhere is fine.
        assert!(lint_source("crates/engine/src/handle.rs", src).is_empty());
    }

    #[test]
    fn unwrap_in_socket_threads_and_shard_workers_is_rejected() {
        // R2 covers the dialer/receiver/sender thread file, the reactor
        // shard workers and the link pipeline they share, not just the
        // switch loop.
        let src = "fn f(x: Result<u32, ()>) -> u32 { x.expect(\"boom\") }\n";
        for file in [
            "crates/engine/src/peer.rs",
            "crates/engine/src/shard.rs",
            "crates/engine/src/link.rs",
        ] {
            let v = lint_source(file, src);
            assert_eq!(v.len(), 1, "{file} must be panic-free");
            assert_eq!(v[0].rule, "panic-path");
        }
    }

    #[test]
    fn wall_clock_needs_a_waiver_in_simnet_reachable_crates() {
        let bare = "fn f() { std::thread::sleep(d); }\n";
        let v = lint_source("crates/queue/src/ring.rs", bare);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "wall-clock");

        let waived = "// xtask-lint: allow(wall-clock) — real socket retry\n\
                      fn f() { std::thread::sleep(d); }\n";
        assert!(lint_source("crates/queue/src/ring.rs", waived).is_empty());

        // The clock abstraction itself is the sanctioned site.
        let clock = "fn now() -> Instant { Instant::now() }\n";
        assert!(lint_source("crates/ratelimit/src/clock.rs", clock).is_empty());
        // Engine is not simnet-reachable; real sleeps are its business.
        assert!(lint_source("crates/engine/src/peer.rs", bare).is_empty());
    }

    #[test]
    fn std_sync_in_shimmed_crate_is_rejected_outside_shim() {
        let src = "use std::sync::Mutex;\n";
        for file in [
            "crates/queue/src/ring.rs",
            "crates/engine/src/handle.rs",
            "crates/engine/src/link.rs",
        ] {
            let v = lint_source(file, src);
            assert_eq!(v.len(), 1, "{file} must route sync through its shim");
            assert_eq!(v[0].rule, "std-sync");
        }
        assert!(lint_source("crates/queue/src/sync.rs", src).is_empty());
        // The message crate has no shim; std::sync is its business.
        assert!(lint_source("crates/message/src/codec.rs", src).is_empty());
    }

    #[test]
    fn parking_lot_in_shimmed_crate_is_rejected_outside_shim() {
        let src = "use parking_lot::Mutex;\n";
        let v = lint_source("crates/observer/src/server.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "std-sync");
        assert!(lint_source("crates/observer/src/sync.rs", src).is_empty());
    }

    #[test]
    fn unwrap_in_observer_request_handler_is_rejected_scope_aware() {
        // Same file, two functions: only the listed handler is covered.
        let src = "\
fn serve_connection(x: Option<u32>) -> u32 {
    x.unwrap()
}
fn spawn_helper(x: Option<u32>) -> u32 {
    x.unwrap()
}
";
        let v = lint_source("crates/observer/src/server.rs", src);
        assert_eq!(v.len(), 1, "only the handler fn is panic-free: {v:?}");
        assert_eq!(v[0].rule, "panic-path");
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn unwrap_in_observer_assembly_is_rejected() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let v = lint_source("crates/observer/src/assembly.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "panic-path");
    }

    // The acceptance-criterion self-test for R6: a deliberate blocking
    // call inside `impl Shard` is rejected; the same call on the
    // control surface (`impl ShardPool`) is not.
    #[test]
    fn deliberate_sleep_in_shard_impl_is_rejected() {
        let src = "\
impl Shard {
    fn run(&mut self) {
        std::thread::sleep(d);
    }
}
impl ShardPool {
    fn shutdown(&self) {
        std::thread::sleep(d);
    }
}
";
        let v = lint_source("crates/engine/src/shard.rs", src);
        assert_eq!(v.len(), 1, "only the shard-side sleep is banned: {v:?}");
        assert_eq!(v[0].rule, "no-blocking-in-shard");
        assert_eq!(v[0].line, 3);
        assert!(v[0].to_string().contains("crates/engine/src/shard.rs:3"));
    }

    // The link pipeline's steps run on shard threads too: a wait inside
    // one (here, sleeping a reservation out instead of returning its
    // delay) is rejected, and so is locking anything but the meter.
    #[test]
    fn deliberate_sleep_in_a_link_step_is_rejected() {
        let src = "\
impl LinkEnv {
    fn pace(&self, chain: &BucketChain, bytes: u64, now: Nanos) -> Nanos {
        let delay = chain.reserve(bytes, now);
        std::thread::sleep(Duration::from_nanos(delay));
        self.pool.threads.lock().len() as u64
    }
    fn finish(&self, meter: &Mutex<ThroughputMeter>) {
        meter.lock().record_batch(1, 1, 0);
    }
}
";
        let v = lint_source("crates/engine/src/link.rs", src);
        assert_eq!(v.len(), 2, "the sleep and the foreign lock: {v:?}");
        assert!(v.iter().all(|x| x.rule == "no-blocking-in-shard"));
        assert_eq!((v[0].line, v[1].line), (4, 5));
        assert!(v[0].to_string().contains("crates/engine/src/link.rs:4"));
    }

    #[test]
    fn blocking_joins_and_recvs_in_shard_impl_are_rejected() {
        let src = "\
impl Shard {
    fn bad(&mut self, h: JoinHandle<()>, rx: Receiver<u8>) {
        let _ = h.join();
        let _ = rx.recv();
        let _ = rx.try_recv();
    }
}
";
        let v = lint_source("crates/engine/src/shard.rs", src);
        assert_eq!(v.len(), 2, "join+recv banned, try_recv fine: {v:?}");
        assert!(v.iter().all(|x| x.rule == "no-blocking-in-shard"));
        assert_eq!((v[0].line, v[1].line), (3, 4));
    }

    #[test]
    fn blocking_batch_push_in_shard_impl_is_rejected() {
        let src = "\
impl Shard {
    fn flush(&mut self, link: &mut RecvLink) {
        let _ = link.queue.push_batch(&mut link.batch);
        let _ = link.queue.push_all(&mut link.batch);
    }
}
";
        let v = lint_source("crates/engine/src/shard.rs", src);
        assert_eq!(v.len(), 1, "push_all banned, push_batch fine: {v:?}");
        assert_eq!(v[0].rule, "no-blocking-in-shard");
        assert_eq!(v[0].line, 4);
    }

    #[test]
    fn shard_lock_on_non_shard_safe_class_is_rejected() {
        // `meter` belongs to a shard_safe class; `threads` does not.
        // The second `.lock()` wraps onto its own line, which the
        // positional receiver walk must follow.
        let src = "\
impl Shard {
    fn touch(&mut self, link: &Link) {
        link.meter.lock().record(1);
        let n = self.pool.threads
            .lock()
            .len();
    }
}
";
        let v = lint_source("crates/engine/src/shard.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "no-blocking-in-shard");
        assert_eq!(v[0].line, 5);
        assert!(v[0].msg.contains("`threads`"));
    }

    #[test]
    fn bare_test_attributed_fn_in_shard_impl_is_exempt() {
        // A `#[test]` fn outside a cfg(test) module evades the lexical
        // line flags; the captured attributes still exempt it.
        let src = "\
impl Shard {
    #[test]
    fn exercises_blocking() {
        std::thread::sleep(d);
    }
}
";
        assert!(lint_source("crates/engine/src/shard.rs", src).is_empty());
    }

    #[test]
    fn shard_lock_on_computed_receiver_is_rejected() {
        let src = "\
impl Shard {
    fn touch(&mut self) {
        (self.pick()).lock().poke();
    }
}
";
        let v = lint_source("crates/engine/src/shard.rs", src);
        assert_eq!(v.len(), 1);
        assert!(v[0].msg.contains("unrecognized receiver"));
    }

    // The acceptance-criterion self-test for R8: a worker that sends a
    // wake-up of its own — a deliberate second construction site — is
    // rejected; the hook installers and the engine's match arms are not.
    #[test]
    fn deliberate_second_wake_site_is_rejected() {
        let src = "\
impl LinkEnv {
    pub(crate) fn wake_on_data(&self, queue: &CircularQueue<Msg>) {
        let events = self.events.clone();
        queue.set_data_hook(Some(Arc::new(move || {
            let _ = events.send(ControlEvent::DataAvailable);
        })));
    }
}
fn run_receiver(env: LinkEnv, queue: CircularQueue<Msg>) {
    if queue.is_empty() {
        let _ = env.events.send(ControlEvent::DataAvailable);
    }
}
fn handle_event(event: ControlEvent) {
    match event {
        ControlEvent::DataAvailable => {}
        ControlEvent::SendSpace | ControlEvent::Shutdown => {}
    }
    if let ControlEvent::SendSpace = event {}
}
";
        let v = lint_source("crates/engine/src/peer.rs", src);
        assert_eq!(v.len(), 1, "only the worker's own send: {v:?}");
        assert_eq!(v[0].rule, "wake-from-edge");
        assert_eq!(v[0].line, 11);
        assert!(v[0].to_string().contains("crates/engine/src/peer.rs:11"));
        // Other crates have no such events; test modules may build them.
        assert!(lint_source("crates/observer/src/core.rs", src).is_empty());
        let in_test = "#[cfg(test)]\nmod tests {\n    fn t(tx: Tx) { tx.send(ControlEvent::SendSpace); }\n}\n";
        assert!(lint_source("crates/engine/src/shard.rs", in_test).is_empty());
        let space = "fn service_send(&mut self) { let _ = self.env.events.send(ControlEvent::SendSpace); }\n";
        let v = lint_source("crates/engine/src/shard.rs", space);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "wake-from-edge");
    }

    // The self-test for R9: a driver that grows its own staging area or
    // route table again is rejected; using the shared ones is not.
    #[test]
    fn a_second_copy_of_the_switch_state_is_rejected() {
        let src = "\
use ioverlay_api::{AppRoutes, StagedEffects};
pub(crate) struct StagedEffects {
    pub sends: Vec<(Msg, NodeId)>,
}
struct AppRoute<'a> { app: AppId }
pub struct AppRoutesView;
pub(crate) struct EngineState {
    pub app_upstreams: HashMap<AppId, BTreeSet<NodeId>>,
    pub routes: AppRoutes,
    pub staged: StagedEffects,
}
// app_downstreams in a comment is prose
";
        let v = lint_source("crates/engine/src/engine.rs", src);
        let lines: Vec<usize> = v.iter().map(|v| v.line).collect();
        assert_eq!(lines, vec![2, 5, 8], "{v:?}");
        assert!(v.iter().all(|v| v.rule == "one-switch-state"));
        assert!(v[0].msg.contains("`struct StagedEffects`"));
        assert!(v[2].msg.contains("`app_upstreams`"));
        assert_eq!(lint_source("crates/simnet/src/node.rs", src).len(), 3);
        // The shared module is their one home.
        assert!(lint_source("crates/api/src/switch.rs", src).is_empty());
    }

    // The acceptance-criterion self-test for R7: a shimmed lock
    // constructor that skips the class registry is rejected.
    #[test]
    fn lock_constructor_without_declared_class_is_rejected() {
        let bare = "fn f() { let m = Mutex::new(Hooks::default()); }\n";
        let v = lint_source("crates/queue/src/ring.rs", bare);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "lock-class-declared");

        let undeclared = "fn f() { let m = Mutex::new(&classes::NOT_A_CLASS, 0u32); }\n";
        let v = lint_source("crates/queue/src/ring.rs", undeclared);
        assert_eq!(v.len(), 1);
        assert!(v[0].msg.contains("NOT_A_CLASS"));

        // Declared classes pass, through any of the sanctioned paths,
        // including a first argument wrapped onto the next line.
        for good in [
            "fn f() { let m = Mutex::new(&classes::QUEUE_RING, 0u32); }\n",
            "fn f() { let m = Mutex::new(&sync::classes::QUEUE_RING, 0u32); }\n",
            "fn f() { let m = Mutex::new(\n    &lockdep::classes::QUEUE_RING,\n    0u32,\n); }\n",
        ] {
            assert!(lint_source("crates/queue/src/ring.rs", good).is_empty(), "{good}");
        }

        // The shim itself constructs the underlying primitive.
        assert!(lint_source("crates/queue/src/sync.rs", bare).is_empty());
        // Unshimmed crates are not covered.
        assert!(lint_source("crates/message/src/codec.rs", bare).is_empty());
    }

    #[test]
    fn class_table_parses_the_compiled_in_registry() {
        let t = ClassTable::parse(LOCK_CLASSES_SRC);
        for name in [
            "QUEUE_RING",
            "QUEUE_HOOKS",
            "TELEMETRY_EVENTS",
            "TELEMETRY_SPANS",
            "ENGINE_METER",
            "ENGINE_SHARD_SIGNAL",
            "ENGINE_SHARD_THREADS",
            "OBSERVER_CORE",
        ] {
            assert!(t.declared.contains(name), "registry must declare {name}");
        }
        // The `ALL` index is not a class.
        assert!(!t.declared.contains("ALL"));
        // shard_safe fields include the signal mailboxes and meters but
        // never the pool's join-handle list.
        for field in ["inner", "hooks", "meter", "dirty_send", "resume_recv", "records"] {
            assert!(t.shard_safe_fields.contains(field), "{field} must be shard-safe");
        }
        assert!(!t.shard_safe_fields.contains("threads"));
        assert!(!t.shard_safe_fields.contains("core"));
    }

    // The acceptance-criterion self-test for R5: a deliberate unsafe
    // block outside the waived module is rejected with a file:line
    // diagnostic.
    #[test]
    fn deliberate_unsafe_outside_waived_module_is_rejected() {
        let src = "fn f(p: *const u8) -> u8 {\n\
                   \x20   unsafe { *p }\n\
                   }\n";
        let v = lint_source("crates/queue/src/ring.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "scoped-unsafe");
        assert_eq!(v[0].line, 2);
        assert!(v[0].to_string().contains("crates/queue/src/ring.rs:2"));
    }

    #[test]
    fn allow_unsafe_code_outside_waived_module_is_rejected() {
        let src = "#![allow(unsafe_code)]\n";
        let v = lint_source("crates/engine/src/handle.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "scoped-unsafe");
        // The lint-table *names* are not the keyword: deny/forbid stay legal.
        assert!(lint_source("crates/engine/src/handle.rs", "#![forbid(unsafe_code)]\n").is_empty());
        assert!(lint_source("crates/engine/src/handle.rs", "#![deny(unsafe_code)]\n").is_empty());
    }

    #[test]
    fn waived_simd_module_needs_its_waiver_comment() {
        let with_marker = "// xtask-lint: allow(unsafe-code) — intrinsics behind runtime detection\n\
                           #![allow(unsafe_code)]\n\
                           pub fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        assert!(lint_source("crates/gf256/src/simd.rs", with_marker).is_empty());

        let without_marker = "#![allow(unsafe_code)]\nfn f() { unsafe {} }\n";
        let v = lint_source("crates/gf256/src/simd.rs", without_marker);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "scoped-unsafe");
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn unsafe_in_comments_and_strings_does_not_trip_r5() {
        let src = "// this code is unsafe to refactor\n\
                   let s = \"unsafe\";\n";
        // Comments are masked; string literals are masked too.
        assert!(lint_source("crates/queue/src/ring.rs", src).is_empty());
    }

    #[test]
    fn tests_and_compat_paths_are_fully_exempt() {
        let src = "a.load(Ordering::Relaxed); x.unwrap(); std::thread::sleep(d);\n";
        assert!(lint_source("crates/queue/tests/loom.rs", src).is_empty());
        assert!(lint_source("crates/compat/loom/src/rt.rs", src).is_empty());
    }

    // The live tree must be clean — this is the same check CI runs.
    #[test]
    fn current_workspace_is_clean() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(|p| p.parent())
            .expect("xtask lives at <root>/crates/xtask")
            .to_path_buf();
        let violations = lint_workspace(&root).expect("walk workspace");
        assert!(
            violations.is_empty(),
            "workspace has lint violations:\n{}",
            violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

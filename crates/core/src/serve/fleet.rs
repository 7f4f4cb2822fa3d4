//! A [`Fleet`] shards independent [`Session`]s across threads.
//!
//! Sessions are fully independent (each pins its own graph and owns its own
//! caches), so the only thing the fleet has to guarantee is *placement
//! determinism*: sessions are split into contiguous chunks, each chunk's
//! sessions run their workloads in order on one scoped thread, and results
//! are reassembled in session order. No value ever depends on which thread
//! ran what, so outputs are bit-identical for every thread count — the same
//! argument as the consumer bucket sweep, re-checked end-to-end under the
//! `determinism-checks` cargo feature (the fleet re-runs the whole workload
//! sequentially on pristine session clones and asserts equality).

use super::metrics::MetricsSnapshot;
use super::request::{Request, Response, SolveError};
use super::session::Session;
use super::store::StoreError;
use locality_graph::Graph;
use std::path::Path;

/// Bounded retry-with-backoff for [`Fleet::restore_or_new`]: how many
/// times to re-attempt a failed snapshot read before falling back to a
/// fresh session.
///
/// Only *transient* failures are retried — I/O errors and integrity
/// failures a concurrent writer could explain (truncation, checksum or
/// magic mismatches from reading mid-replace on a non-atomic filesystem).
/// Version skew, graph mismatches and structurally malformed content are
/// permanent for a given file, so those rebuild immediately.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (min 1).
    pub attempts: u32,
    /// Base backoff between attempts, in milliseconds; attempt `i` waits
    /// `i × backoff_ms` (linear backoff, `0` = no waiting).
    pub backoff_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            attempts: 3,
            backoff_ms: 10,
        }
    }
}

impl RetryPolicy {
    /// A policy with explicit attempt and backoff knobs.
    pub fn new(attempts: u32, backoff_ms: u64) -> Self {
        Self {
            attempts: attempts.max(1),
            backoff_ms,
        }
    }
}

/// How each session of a [`Fleet::restore_or_new`] call came to be. A
/// corrupt or unreadable snapshot is a *recoverable* condition — the fleet
/// rebuilds a cold session and reports what happened here instead of
/// surfacing an error.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub enum RestoreOutcome {
    /// The snapshot decoded and verified; the session starts warm.
    Restored {
        /// Cached decomposition slots recovered from the snapshot.
        slots: usize,
    },
    /// Every attempt failed; a cold session was built instead.
    Rebuilt {
        /// Attempts made before giving up.
        attempts: u32,
        /// The last error seen.
        error: StoreError,
    },
    /// No snapshot path was given for this graph.
    Fresh,
}

/// Whether a retry could plausibly see a different result (the file may be
/// mid-replace or the I/O error momentary).
fn is_transient(e: &StoreError) -> bool {
    matches!(
        e,
        StoreError::Io { .. }
            | StoreError::Truncated { .. }
            | StoreError::ChecksumMismatch { .. }
            | StoreError::BadMagic
    )
}

/// A set of independent serving sessions, one per graph, with a batched
/// multi-threaded solve.
///
/// # Example
/// ```
/// use locality_core::serve::{Fleet, Request};
/// use locality_graph::Graph;
///
/// let mut fleet = Fleet::new([Graph::cycle(16), Graph::grid(4, 4)]);
/// let workloads = vec![vec![Request::mis()], vec![Request::coloring()]];
/// let results = fleet.solve_all(&workloads, 2);
/// assert_eq!(results.len(), 2);
/// assert!(results.iter().flatten().all(Result::is_ok));
/// ```
#[derive(Debug, Clone)]
pub struct Fleet {
    sessions: Vec<Session>,
}

impl Fleet {
    /// One session per graph, in order.
    pub fn new(graphs: impl IntoIterator<Item = Graph>) -> Self {
        Self {
            sessions: graphs.into_iter().map(Session::new).collect(),
        }
    }

    /// One session per graph, restoring each from its snapshot when one is
    /// given and it decodes cleanly, with bounded retry-with-backoff for
    /// transient failures. A snapshot that stays unreadable or corrupt is
    /// never an error: the fleet falls back to a cold session and records
    /// the fallback (and its last error) in the returned outcomes, aligned
    /// with the sessions.
    ///
    /// `paths[i]` is the optional snapshot for graph `i`; missing entries
    /// (shorter slice or `None`) mean "start fresh".
    pub fn restore_or_new<P: AsRef<Path>>(
        graphs: impl IntoIterator<Item = Graph>,
        paths: &[Option<P>],
        policy: RetryPolicy,
    ) -> (Self, Vec<RestoreOutcome>) {
        let mut sessions = Vec::new();
        let mut outcomes = Vec::new();
        for (i, graph) in graphs.into_iter().enumerate() {
            let Some(Some(path)) = paths.get(i).map(|p| p.as_ref().map(|p| p.as_ref())) else {
                outcomes.push(RestoreOutcome::Fresh);
                sessions.push(Session::new(graph));
                continue;
            };
            let attempts_allowed = policy.attempts.max(1);
            let mut attempts = 0;
            let (session, outcome) = loop {
                attempts += 1;
                match Session::restore(graph.clone(), path) {
                    Ok(s) => {
                        let slots = s.decomp_slots().len();
                        break (s, RestoreOutcome::Restored { slots });
                    }
                    Err(e) if attempts < attempts_allowed && is_transient(&e) => {
                        if policy.backoff_ms > 0 {
                            std::thread::sleep(std::time::Duration::from_millis(
                                policy.backoff_ms * u64::from(attempts),
                            ));
                        }
                    }
                    Err(e) => {
                        break (
                            Session::new(graph),
                            RestoreOutcome::Rebuilt { attempts, error: e },
                        )
                    }
                }
            };
            outcomes.push(outcome);
            sessions.push(session);
        }
        (Self { sessions }, outcomes)
    }

    /// Number of sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Whether the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// The `i`-th session (for direct, single-graph interaction).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn session_mut(&mut self, i: usize) -> &mut Session {
        &mut self.sessions[i]
    }

    /// The sessions, in construction order.
    pub fn sessions(&self) -> &[Session] {
        &self.sessions
    }

    /// Consume the fleet, yielding its sessions in construction order (the
    /// HTTP front-end takes ownership this way and pins each session to a
    /// worker, preserving the fleet's sharding determinism).
    pub fn into_sessions(self) -> Vec<Session> {
        self.sessions
    }

    /// Cache-hit / solver counters folded across every session (no HTTP
    /// layer). Cheap: one `Copy` per session.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot::from_stats(self.sessions.iter().map(Session::stats))
    }

    /// Run `workloads[i]` against session `i`, sharding sessions across up
    /// to `threads` scoped threads (`0` = all cores). Results are indexed
    /// `[session][request]` and are bit-identical to running every workload
    /// sequentially, for every thread count.
    ///
    /// # Panics
    /// Panics if `workloads.len()` differs from the session count, or if a
    /// worker thread panics.
    pub fn solve_all(
        &mut self,
        workloads: &[Vec<Request>],
        threads: usize,
    ) -> Vec<Vec<Result<Response, SolveError>>> {
        assert_eq!(
            workloads.len(),
            self.sessions.len(),
            "one workload per session"
        );
        #[cfg(feature = "determinism-checks")]
        let pristine = self.sessions.clone();

        let threads = crate::consume::resolve_threads(threads).max(1);
        let chunk = self.sessions.len().div_ceil(threads).max(1);
        let mut results: Vec<Vec<Result<Response, SolveError>>> =
            Vec::with_capacity(self.sessions.len());
        if threads <= 1 || self.sessions.len() <= 1 {
            for (s, w) in self.sessions.iter_mut().zip(workloads) {
                results.push(s.solve_batch(w));
            }
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .sessions
                    .chunks_mut(chunk)
                    .zip(workloads.chunks(chunk))
                    .map(|(sessions, work)| {
                        scope.spawn(move || {
                            sessions
                                .iter_mut()
                                .zip(work)
                                .map(|(s, w)| s.solve_batch(w))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                for h in handles {
                    // Re-raise a worker's panic payload verbatim instead of
                    // wrapping it in a second panic here (serve code keeps
                    // its release paths free of panic tokens —
                    // `tests/serve_no_panics.rs` pins this).
                    match h.join() {
                        Ok(chunk_results) => results.extend(chunk_results),
                        Err(payload) => std::panic::resume_unwind(payload),
                    }
                }
            });
        }

        #[cfg(feature = "determinism-checks")]
        {
            let mut sequential = pristine;
            let seq_results: Vec<Vec<Result<Response, SolveError>>> = sequential
                .iter_mut()
                .zip(workloads)
                .map(|(s, w)| s.solve_batch(w))
                .collect();
            assert_eq!(
                results, seq_results,
                "determinism check: sharded fleet diverged from sequential replay"
            );
        }
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::request::SlocalTask;
    use locality_rand::prng::SplitMix64;

    fn graphs(k: usize) -> Vec<Graph> {
        let mut p = SplitMix64::new(5);
        (0..k)
            .map(|i| Graph::gnp_connected(40 + 7 * i, 0.08, &mut p))
            .collect()
    }

    fn workload() -> Vec<Request> {
        vec![
            Request::decompose(),
            Request::mis(),
            Request::coloring(),
            Request::slocal(SlocalTask::GreedyMis),
            Request::mis(), // a repeat: exercised as a cache hit per session
        ]
    }

    #[test]
    fn sharded_results_are_thread_count_invariant() {
        let gs = graphs(7);
        let workloads: Vec<Vec<Request>> = (0..gs.len()).map(|_| workload()).collect();
        let mut sequential = Fleet::new(gs.clone());
        let expected = sequential.solve_all(&workloads, 1);
        for threads in [2usize, 3, 16] {
            let mut fleet = Fleet::new(gs.clone());
            let got = fleet.solve_all(&workloads, threads);
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn per_session_caches_stay_independent() {
        let gs = graphs(3);
        let workloads: Vec<Vec<Request>> = (0..3).map(|_| workload()).collect();
        let mut fleet = Fleet::new(gs);
        fleet.solve_all(&workloads, 2);
        for s in fleet.sessions() {
            assert_eq!(s.stats().decompositions_built, 1);
            assert_eq!(s.stats().response_hits, 1, "the repeated MIS request");
        }
    }

    #[test]
    fn empty_fleet_and_empty_workloads() {
        let mut fleet = Fleet::new([]);
        assert!(fleet.is_empty());
        assert!(fleet.solve_all(&[], 4).is_empty());
        let mut one = Fleet::new([Graph::path(3)]);
        assert_eq!(one.len(), 1);
        let out = one.solve_all(&[vec![]], 4);
        assert_eq!(out, vec![vec![]]);
    }

    #[test]
    #[should_panic(expected = "one workload per session")]
    fn workload_arity_is_checked() {
        let mut fleet = Fleet::new([Graph::path(3)]);
        let _ = fleet.solve_all(&[], 1);
    }

    #[test]
    fn fleet_metrics_snapshot_folds_sessions() {
        let gs = graphs(3);
        let workloads: Vec<Vec<Request>> = (0..3).map(|_| workload()).collect();
        let mut fleet = Fleet::new(gs);
        fleet.solve_all(&workloads, 2);
        let snap = fleet.metrics_snapshot();
        assert_eq!(snap.sessions, 3);
        assert_eq!(snap.requests, 3 * workload().len() as u64);
        assert_eq!(snap.response_hits, 3, "one repeat per session");
        assert_eq!(snap.decompositions_built, 3);
        assert!(snap.http.is_none());
        // The per-session snapshot agrees with the fold of one.
        let one = fleet.sessions()[0].metrics_snapshot();
        assert_eq!(one.sessions, 1);
        assert_eq!(one.requests, workload().len() as u64);
    }

    #[test]
    fn missing_snapshot_is_transient_and_retried_to_the_cap() {
        let gs = graphs(1);
        let path =
            std::env::temp_dir().join(format!("locality-fleet-missing-{}.bin", std::process::id()));
        // A missing file is an Io error, which is transient: the policy's
        // attempts all run before the fleet rebuilds cold.
        let (_, outcomes) = Fleet::restore_or_new(gs, &[Some(path)], RetryPolicy::new(2, 0));
        assert!(
            matches!(
                &outcomes[0],
                RestoreOutcome::Rebuilt {
                    attempts: 2,
                    error: StoreError::Io { .. },
                }
            ),
            "got {:?}",
            outcomes[0]
        );
    }

    #[test]
    fn restore_or_new_recovers_rebuilds_and_freshens() {
        let gs = graphs(3);
        let dir = std::env::temp_dir();
        let tag = std::process::id();
        let good_path = dir.join(format!("locality-fleet-good-{tag}.bin"));
        let corrupt_path = dir.join(format!("locality-fleet-corrupt-{tag}.bin"));

        // Session 0: a warm snapshot. Session 1: the same bytes with a bit
        // flipped mid-file. Session 2: no snapshot at all.
        let mut warm = Session::new(gs[0].clone());
        warm.solve_batch(&workload());
        warm.persist(&good_path).unwrap();
        let mut bytes = std::fs::read(&good_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&corrupt_path, &bytes).unwrap();

        let paths = [Some(good_path.clone()), Some(corrupt_path.clone()), None];
        let (mut fleet, outcomes) =
            Fleet::restore_or_new(gs.clone(), &paths, RetryPolicy::new(2, 0));
        let _ = std::fs::remove_file(&good_path);
        let _ = std::fs::remove_file(&corrupt_path);

        assert!(
            matches!(outcomes[0], RestoreOutcome::Restored { slots, .. } if slots > 0),
            "got {:?}",
            outcomes[0]
        );
        assert!(
            matches!(
                &outcomes[1],
                RestoreOutcome::Rebuilt {
                    attempts: 2,
                    error: StoreError::ChecksumMismatch { .. },
                    ..
                }
            ),
            "corruption is transient: retried to the attempt cap, then rebuilt cold; got {:?}",
            outcomes[1]
        );
        assert_eq!(outcomes[2], RestoreOutcome::Fresh);

        // Recoverable cases never surface errors: the whole fleet serves,
        // and the restored session answers exactly like a freshly built one.
        let workloads: Vec<Vec<Request>> = (0..3).map(|_| workload()).collect();
        let results = fleet.solve_all(&workloads, 2);
        assert!(results.iter().flatten().all(Result::is_ok));
        let mut fresh = Fleet::new(gs);
        assert_eq!(results, fresh.solve_all(&workloads, 1));
        assert_eq!(
            fleet.sessions()[0].stats().decompositions_built,
            0,
            "the restored snapshot served every request"
        );
    }

    #[test]
    fn restore_or_new_rebuilds_immediately_on_permanent_errors() {
        let gs = graphs(2);
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "locality-fleet-mismatch-{}.bin",
            std::process::id()
        ));
        // A valid snapshot of graph 0 offered for graph 1: GraphMismatch is
        // permanent, so no retries happen even with a generous policy.
        let mut warm = Session::new(gs[0].clone());
        warm.solve(&Request::decompose()).unwrap();
        warm.persist(&path).unwrap();

        let paths = [Some(path.clone())];
        let (fleet, outcomes) = Fleet::restore_or_new(
            [gs[1].clone()],
            &paths,
            RetryPolicy::new(5, 1_000), // 5 s of backoff if retries ran
        );
        let _ = std::fs::remove_file(&path);
        assert!(
            matches!(
                &outcomes[0],
                RestoreOutcome::Rebuilt {
                    attempts: 1,
                    error: StoreError::GraphMismatch { .. },
                    ..
                }
            ),
            "got {:?}",
            outcomes[0]
        );
        assert_eq!(fleet.len(), 1);
    }
}

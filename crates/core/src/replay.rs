//! Deterministic replay of the one-lane controller's Memory Catalog
//! accounting, shared by the engine's refresh executor and the
//! simulator's multi-lane model so their admit-or-fallback decisions can
//! never drift apart.
//!
//! The one-lane controller walks `plan.order`; at each flagged node with
//! consumers it admits the output if it fits the remaining budget
//! (otherwise the node falls back to a blocking write), and after each
//! node it releases every parent whose consumers have all executed. This
//! type replays exactly that bookkeeping — incrementally, so the engine
//! can fix decisions as real output sizes arrive, while the simulator
//! (which knows all sizes upfront) advances it in one call.

use serde::{Deserialize, Serialize};

use sc_dag::NodeId;

use crate::plan::Plan;

/// Policy for choosing between full recomputation and incremental (delta)
/// maintenance of each MV during a refresh run.
///
/// The engine's controller and the simulator both consume this knob (via
/// `RefreshConfig` and `SimConfig` respectively), so a policy choice can be
/// evaluated analytically before it is deployed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum RefreshMode {
    /// Choose per node: skip unchanged MVs, maintain incrementally when the
    /// operators support it *and* the cost model predicts a win
    /// ([`crate::CostModel::incremental_refresh_wins`]), recompute otherwise.
    #[default]
    Auto,
    /// Recompute every MV from its (already-updated) inputs — the paper's
    /// original behavior, and the baseline incremental refresh is judged
    /// against.
    AlwaysFull,
    /// Maintain incrementally whenever the operators support it, regardless
    /// of the cost model (unchanged MVs are still skipped). Useful for
    /// benchmarking the incremental path itself.
    AlwaysIncremental,
}

/// Per-node outcome of refresh-mode planning: how one MV will be brought
/// up to date by the current refresh run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeMode {
    /// Recompute the MV from its inputs and rewrite it.
    Full,
    /// Apply the propagated delta to the previous MV contents.
    Incremental,
    /// No pending delta reaches this MV: its stored contents are already
    /// current and the node performs no work at all.
    Skipped,
}

/// Why refresh-mode planning settled on a node's [`NodeMode`] — the
/// machine-readable half of a refresh report's `explain()` rendering.
///
/// The engine's controller records one reason per node while fixing the
/// run's delta plan, so callers can see not just *what* the run did
/// (recompute / apply delta / skip) but *why* the cheaper options were
/// unavailable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModeReason {
    /// No delta log was attached, or the run's policy is
    /// [`RefreshMode::AlwaysFull`]: every node recomputes by policy.
    FullPolicy,
    /// The MV does not exist on storage yet, so its first materialization
    /// is necessarily a full computation.
    FirstMaterialization,
    /// A previous refresh failed (or a mid-run ingest contaminated a
    /// recomputed MV), so the delta log is poisoned: only a full recompute
    /// is idempotent.
    PoisonedLog,
    /// Some input's delta is unknown — a parent MV recomputed in full
    /// without publishing a delta — so the node cannot maintain
    /// incrementally and recomputes.
    ParentRecomputed,
    /// A static (join build-side) input churned; its new rows would
    /// interleave into existing match groups, which no append-only delta
    /// reproduces, so the node recomputes.
    StaticChurn,
    /// The operator tree cannot maintain the delta's shape (unsupported
    /// operator, or a delete-carrying delta over delete-blind operators).
    UnsupportedShape,
    /// The cost model predicted recomputing is cheaper than the
    /// incremental path ([`crate::CostModel::incremental_refresh_wins`]).
    CostModel,
    /// No pending change reaches the node: its stored contents are
    /// already current, so it performs no work.
    NoChurn,
    /// The propagated delta was applied to the stored contents.
    DeltaApplied,
}

impl ModeReason {
    /// One-line human rendering used by refresh reports.
    pub fn describe(self) -> &'static str {
        match self {
            ModeReason::FullPolicy => "full recompute (policy: no delta log or AlwaysFull)",
            ModeReason::FirstMaterialization => "full recompute (first materialization)",
            ModeReason::PoisonedLog => "full recompute (delta log poisoned by a failed run)",
            ModeReason::ParentRecomputed => {
                "full recompute (a parent recomputed, so its delta is unknown)"
            }
            ModeReason::StaticChurn => "full recompute (a join build side churned)",
            ModeReason::UnsupportedShape => {
                "full recompute (operators cannot maintain this delta shape)"
            }
            ModeReason::CostModel => "full recompute (cost model: cheaper than the delta path)",
            ModeReason::NoChurn => "skipped (no pending change reaches it)",
            ModeReason::DeltaApplied => "incremental (applied the propagated delta)",
        }
    }
}

/// Incremental replayer for plan-order flag-admission decisions.
#[derive(Debug, Clone)]
pub struct AdmissionReplay {
    budget: u64,
    used: u64,
    /// First plan position not yet replayed.
    pos: usize,
    resident: Vec<bool>,
    remaining_children: Vec<usize>,
    flagged_with_children: Vec<bool>,
    /// `Some(admit)` once the node's position has been replayed; only
    /// meaningful for flagged nodes with consumers.
    decisions: Vec<Option<bool>>,
}

impl AdmissionReplay {
    /// Builds a replayer for `plan` over a DAG given as per-node parent
    /// lists (indices into the node set). `budget` is the Memory Catalog
    /// size `M`.
    pub fn new(plan: &Plan, parents: &[Vec<usize>], budget: u64) -> Self {
        let n = parents.len();
        let mut remaining_children = vec![0usize; n];
        for ps in parents {
            for &p in ps {
                remaining_children[p] += 1;
            }
        }
        let flagged_with_children = (0..n)
            .map(|i| plan.flagged.contains(NodeId(i)) && remaining_children[i] > 0)
            .collect();
        AdmissionReplay {
            budget,
            used: 0,
            pos: 0,
            resident: vec![false; n],
            remaining_children,
            flagged_with_children,
            decisions: vec![None; n],
        }
    }

    /// Replays plan positions whose nodes have computed (`computed` and
    /// `sizes` are indexed by node id; a computed node's size must be
    /// final). Stops at the first uncomputed position. Safe to call
    /// repeatedly as more nodes compute.
    pub fn advance(
        &mut self,
        plan: &Plan,
        parents: &[Vec<usize>],
        computed: &[bool],
        sizes: &[u64],
    ) {
        while self.pos < plan.order.len() {
            let v = plan.order[self.pos].index();
            if !computed[v] {
                break;
            }
            if self.flagged_with_children[v] {
                let fits = self.used + sizes[v] <= self.budget;
                if fits {
                    self.resident[v] = true;
                    self.used += sizes[v];
                }
                self.decisions[v] = Some(fits);
            }
            // The node consumed its parents: release entries whose
            // consumers have now all executed.
            for &p in &parents[v] {
                self.remaining_children[p] -= 1;
                if self.remaining_children[p] == 0 && self.resident[p] {
                    self.resident[p] = false;
                    self.used -= sizes[p];
                }
            }
            self.pos += 1;
        }
    }

    /// First plan position not yet replayed (the computed plan-order
    /// prefix length).
    pub fn prefix(&self) -> usize {
        self.pos
    }

    /// The admit decision for node `i`, once its position has been
    /// replayed. `Some(true)` = admit to the catalog, `Some(false)` =
    /// fall back to a blocking write (the node is flagged but does not
    /// fit), `None` = not yet decided (or the node is not a
    /// flagged-with-consumers node).
    pub fn decision(&self, i: usize) -> Option<bool> {
        self.decisions[i]
    }

    /// Model bytes resident after the replayed prefix.
    pub fn used(&self) -> u64 {
        self.used
    }
}

/// Bounded run-ahead window shared by the engine's refresh executor and
/// its simulator mirror: with `lanes` compute lanes, a node
/// may only start once every node more than this many plan positions
/// before it has computed. This caps the number of computed-but-
/// unpublished outputs held outside the Memory Catalog's accounting while
/// keeping all lanes busy.
pub fn run_ahead_window(lanes: usize) -> usize {
    (4 * lanes).max(8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FlagSet;

    /// base-less diamond: 0 -> {1, 2} -> 3, all flagged.
    fn diamond_plan(n: usize, flagged: &[usize]) -> (Plan, Vec<Vec<usize>>) {
        let order: Vec<NodeId> = (0..n).map(NodeId).collect();
        let plan = Plan {
            order,
            flagged: FlagSet::from_nodes(n, flagged.iter().map(|&i| NodeId(i))),
        };
        let parents = vec![vec![], vec![0], vec![0], vec![1, 2]];
        (plan, parents)
    }

    #[test]
    fn admits_within_budget_and_releases_on_last_consumer() {
        let (plan, parents) = diamond_plan(4, &[0, 1, 2]);
        let sizes = vec![100, 60, 60, 10];
        // Budget fits 0 and one of {1,2} at a time only after 0 releases.
        let mut r = AdmissionReplay::new(&plan, &parents, 160);
        r.advance(&plan, &parents, &[true; 4], &sizes);
        assert_eq!(r.prefix(), 4);
        assert_eq!(r.decision(0), Some(true));
        // 1 computes while 0 still resident (released only after 2 runs):
        // 100 + 60 = 160 fits exactly.
        assert_eq!(r.decision(1), Some(true));
        // 2 admits after... 0 still resident at 2's position (2 is 0's
        // last consumer, released after 2 executes): 160 + 60 > 160.
        assert_eq!(r.decision(2), Some(false));
        // 3 is a leaf: no decision.
        assert_eq!(r.decision(3), None);
        // After 3 consumed 1 and 2, everything is released.
        assert_eq!(r.used(), 0);
    }

    #[test]
    fn incremental_advance_matches_upfront() {
        let (plan, parents) = diamond_plan(4, &[0, 1, 2]);
        let sizes = vec![100, 60, 60, 10];
        let mut upfront = AdmissionReplay::new(&plan, &parents, 160);
        upfront.advance(&plan, &parents, &[true; 4], &sizes);

        let mut incremental = AdmissionReplay::new(&plan, &parents, 160);
        let mut computed = vec![false; 4];
        // Nodes compute out of order; decisions must still land the same.
        for &done in &[2usize, 0, 3, 1] {
            computed[done] = true;
            incremental.advance(&plan, &parents, &computed, &sizes);
        }
        for i in 0..4 {
            assert_eq!(incremental.decision(i), upfront.decision(i), "node {i}");
        }
        assert_eq!(incremental.prefix(), 4);
    }

    #[test]
    fn window_floor_and_scaling() {
        assert_eq!(run_ahead_window(1), 8);
        assert_eq!(run_ahead_window(2), 8);
        assert_eq!(run_ahead_window(4), 16);
    }
}

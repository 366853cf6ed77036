//! Replaying a schedule through the *real* STM.
//!
//! The analytic checker in [`crate::accept`] decides what an ideal
//! synchronization can accept. This module drives the actual
//! [`polytm`] implementation through a schedule's exact interleaving —
//! one thread per process, each event released by a coordinator — and
//! reports whether the implementation executed it without aborting.
//!
//! A real TM may be *more conservative* than the ideal checker (it may
//! abort schedules that are analytically acceptable: e.g. TL2-style
//! validation rejects some serializable interleavings), but it must never
//! be more permissive. The integration tests assert exactly that
//! relation, and that on Figure 1 the implementation matches the paper:
//! elastic (weak) commits, opaque (def) aborts.

use std::sync::mpsc::{channel, Sender};

use polytm::{Semantics, Stm, StmConfig, TxParams};

use crate::accept::Synchronization;
use crate::interleave::{Interleaving, Slot};
use crate::model::{AccessKind, OpSemantics, Program};

/// Result of replaying one schedule against the real STM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// True when every operation committed on its first attempt, i.e. the
    /// implementation *accepted* the schedule.
    pub accepted: bool,
    /// Per-process: did its transaction commit (on the first attempt)?
    pub committed: Vec<bool>,
    /// First failure, if any: (process, abort description).
    pub first_failure: Option<(usize, String)>,
    /// Values returned by each read access (`None` for writes and for
    /// accesses never reached). `Some(0)` is the initial value;
    /// `Some(p + 1)` is the value written by process `p`.
    pub read_values: Vec<Vec<Option<u64>>>,
}

enum Cmd {
    Access(usize),
    Commit,
    Bail,
}

enum Msg {
    AccessOk(usize, Option<u64>),
    AccessFailed(usize, String),
    Done(usize, bool),
}

fn semantics_for(sync: Synchronization, sem: &OpSemantics) -> Result<Semantics, String> {
    match sync {
        Synchronization::Monomorphic => Ok(Semantics::Opaque),
        Synchronization::Polymorphic => match sem {
            OpSemantics::Monomorphic => Ok(Semantics::Opaque),
            OpSemantics::Elastic { window } => Ok(Semantics::Elastic { window: *window }),
            OpSemantics::Explicit(_) => {
                Err("explicit critical-step semantics cannot be replayed on the STM".into())
            }
        },
        Synchronization::LockBased => {
            Err("lock schedules are validated by `LockSchedule`, not replayed on the STM".into())
        }
    }
}

/// Replay `inter` on a fresh [`Stm`], mapping each operation to a
/// transaction under `sync`. See the module docs.
///
/// # Errors
/// Returns `Err` when the synchronization/semantics combination cannot be
/// expressed on the STM (lock-based, explicit critical steps).
pub fn replay(
    program: &Program,
    inter: &Interleaving,
    sync: Synchronization,
) -> Result<ReplayOutcome, String> {
    let procs = program.procs();
    let mut sems = Vec::with_capacity(procs);
    for op in &program.ops {
        sems.push(semantics_for(sync, &op.semantics)?);
    }

    let stm = Stm::with_config(StmConfig {
        irrevocable_fallback_after: None,
        arbiter: polytm::ConflictArbiter::Suicide(polytm::Suicide),
        ..StmConfig::default()
    });
    let max_reg = program
        .ops
        .iter()
        .flat_map(|o| o.accesses.iter().map(|a| a.reg))
        .max()
        .map_or(0, |m| m + 1);
    let regs: Vec<_> = (0..max_reg).map(|_| stm.new_tvar(0u64)).collect();

    let slots = inter.slots(program);
    let mut committed = vec![false; procs];
    let mut read_values: Vec<Vec<Option<u64>>> =
        program.ops.iter().map(|o| vec![None; o.accesses.len()]).collect();
    let mut first_failure: Option<(usize, String)> = None;

    std::thread::scope(|scope| {
        let (msg_tx, msg_rx) = channel::<Msg>();
        let mut cmds: Vec<Sender<Cmd>> = Vec::with_capacity(procs);
        #[allow(clippy::needless_range_loop)] // parallel towers/arrays indexed together
        for p in 0..procs {
            let (cmd_tx, cmd_rx) = channel::<Cmd>();
            cmds.push(cmd_tx);
            let msg_tx = msg_tx.clone();
            let stm = &stm;
            let regs = &regs;
            let op = &program.ops[p];
            let sem = sems[p];
            scope.spawn(move || {
                let mut attempt = 0u32;
                let res = stm.try_run(TxParams::new(sem), |t| {
                    attempt += 1;
                    if attempt > 1 {
                        // The schedule prescribes exactly one attempt; a
                        // retry means the implementation rejected it.
                        return t.cancel();
                    }
                    loop {
                        match cmd_rx.recv() {
                            Ok(Cmd::Access(k)) => {
                                let a = op.accesses[k];
                                let outcome = match a.kind {
                                    AccessKind::Read => regs[a.reg].read(t).map(Some),
                                    AccessKind::Write => {
                                        regs[a.reg].write(t, (p + 1) as u64).map(|()| None)
                                    }
                                };
                                match outcome {
                                    Ok(v) => {
                                        let _ = msg_tx.send(Msg::AccessOk(p, v));
                                    }
                                    Err(e) => {
                                        let _ = msg_tx.send(Msg::AccessFailed(p, e.to_string()));
                                        return Err(e);
                                    }
                                }
                            }
                            Ok(Cmd::Commit) => return Ok(()),
                            Ok(Cmd::Bail) | Err(_) => return t.cancel(),
                        }
                    }
                });
                let _ = msg_tx.send(Msg::Done(p, res.is_ok()));
            });
        }
        drop(msg_tx);

        let mut done = vec![false; procs];
        let mut failed = false;
        for slot in slots {
            if failed {
                break;
            }
            match slot {
                Slot::Access(p, k) => {
                    if cmds[p].send(Cmd::Access(k)).is_err() {
                        break;
                    }
                    match msg_rx.recv() {
                        Ok(Msg::AccessOk(q, v)) => {
                            debug_assert_eq!(q, p);
                            read_values[p][k] = v;
                        }
                        Ok(Msg::AccessFailed(q, why)) => {
                            debug_assert_eq!(q, p);
                            if first_failure.is_none() {
                                first_failure = Some((p, why));
                            }
                            failed = true;
                            // The failing proc's transaction unwinds and
                            // sends Done(p, false).
                            if let Ok(Msg::Done(q2, ok)) = msg_rx.recv() {
                                debug_assert_eq!(q2, p);
                                debug_assert!(!ok);
                                done[p] = true;
                            }
                        }
                        Ok(Msg::Done(q, ok)) => {
                            // Unexpected early completion (defensive).
                            done[q] = true;
                            committed[q] = ok;
                            failed = true;
                        }
                        Err(_) => failed = true,
                    }
                }
                Slot::Commit(p) => {
                    if cmds[p].send(Cmd::Commit).is_err() {
                        break;
                    }
                    match msg_rx.recv() {
                        Ok(Msg::Done(q, ok)) => {
                            debug_assert_eq!(q, p);
                            done[p] = true;
                            committed[p] = ok;
                            if !ok {
                                if first_failure.is_none() {
                                    first_failure =
                                        Some((p, "commit-time validation failed".into()));
                                }
                                failed = true;
                            }
                        }
                        Ok(Msg::AccessFailed(q, why)) => {
                            if first_failure.is_none() {
                                first_failure = Some((q, why));
                            }
                            failed = true;
                        }
                        _ => failed = true,
                    }
                }
            }
        }
        // Unwind any still-running transactions.
        for (p, cmd) in cmds.iter().enumerate() {
            if !done[p] {
                let _ = cmd.send(Cmd::Bail);
            }
        }
        drop(cmds);
        // Drain remaining Done messages so the scope can join.
        while let Ok(msg) = msg_rx.recv() {
            if let Msg::Done(p, ok) = msg {
                if !done[p] {
                    done[p] = true;
                    committed[p] = ok;
                }
            }
        }
    });

    let accepted = committed.iter().all(|&c| c) && first_failure.is_none();
    Ok(ReplayOutcome { accepted, committed, first_failure, read_values })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figure1::{figure1_interleaving, figure1_program};
    use crate::interleave::Interleaving;
    use crate::model::{r, w, OpSpec, Program};

    #[test]
    fn serial_schedule_replays_cleanly_under_both_syncs() {
        let p = Program::new(vec![OpSpec::mono(vec![r(0), w(0)]), OpSpec::weak(vec![r(0), r(1)])]);
        let s = Interleaving::serial(&p);
        for sync in [Synchronization::Monomorphic, Synchronization::Polymorphic] {
            let out = replay(&p, &s, sync).unwrap();
            assert!(out.accepted, "{sync:?}: {:?}", out.first_failure);
            assert!(out.committed.iter().all(|&c| c));
        }
    }

    #[test]
    fn replay_reports_read_values() {
        // p0 writes 1 into reg0 and commits; p1 then reads it.
        let p = Program::new(vec![OpSpec::mono(vec![w(0)]), OpSpec::mono(vec![r(0)])]);
        let s = Interleaving::serial(&p);
        let out = replay(&p, &s, Synchronization::Monomorphic).unwrap();
        assert!(out.accepted);
        assert_eq!(out.read_values[1][0], Some(1), "p1 must read p0's value (p0 id + 1)");
    }

    #[test]
    fn figure1_replay_matches_the_paper() {
        let p = figure1_program();
        let i = figure1_interleaving();
        // Polymorphic: the weak traversal tolerates the overwrites.
        let poly = replay(&p, &i, Synchronization::Polymorphic).unwrap();
        assert!(poly.accepted, "polymorphic STM must accept Figure 1: {:?}", poly.first_failure);
        // p1 read the *initial* x (before p2's overwrite) and p3's z.
        assert_eq!(poly.read_values[0], vec![Some(0), Some(0), Some(3)]);

        // Monomorphic: the opaque traversal must abort.
        let mono = replay(&p, &i, Synchronization::Monomorphic).unwrap();
        assert!(!mono.accepted, "monomorphic STM must reject Figure 1");
        let (failing, _) = mono.first_failure.clone().expect("a failure must be recorded");
        assert_eq!(failing, 0, "p1's traversal is the victim");
    }

    #[test]
    fn lock_based_replay_is_refused_here() {
        let p = figure1_program();
        let i = figure1_interleaving();
        assert!(replay(&p, &i, Synchronization::LockBased).is_err());
    }

    #[test]
    fn explicit_semantics_cannot_replay() {
        let p = Program::new(vec![OpSpec {
            accesses: vec![r(0)],
            semantics: crate::model::OpSemantics::Explicit(vec![vec![0]]),
        }]);
        let s = Interleaving::serial(&p);
        assert!(replay(&p, &s, Synchronization::Polymorphic).is_err());
    }
}

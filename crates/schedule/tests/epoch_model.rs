//! A bounded-interleaving model of the epoch reclaimer behind
//! `crossbeam-epoch` (per-thread epochs, Fraser's scheme), checked
//! exhaustively over two threads.
//!
//! Each thread runs a fixed script of atomic steps: a pin is two steps
//! (read the global epoch, then publish it pinned into the thread's own
//! slot), and a collection is the real one's sequence — seal the open
//! bag with the global epoch, twice scan both slots and advance the
//! global epoch by a compare-and-swap if every pinned slot has seen it,
//! then free the bag if it is two epochs old. The writer loads the one
//! node, unlinks and defers it; the reader pins and loads it around
//! that. Every interleaving of the two scripts is explored (states are
//! memoized), and at every free the model asserts the reclaimer's
//! contract: no pin taken before the unlink is still live, and no thread
//! still holds the node.
//!
//! The model is sequentially consistent: it checks the algorithm's
//! logic, not the fences that make the real code behave that way (the
//! crate's ASan and liveness tests cover the code). Two mutants show the
//! checker has teeth: freeing one epoch after the seal, and an advance
//! that ignores pinned slots, each reach a violation.

use std::collections::HashSet;

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Step {
    /// `r := global`.
    PinRead,
    /// `local := (pinned, r)`.
    PinPublish,
    /// Take a reference to the node, if it is still linked.
    Load,
    /// `local := unpinned`; references die with the pin.
    Unpin,
    /// Unlink the node and push it onto this thread's open bag.
    UnlinkDefer,
    /// Seal the open bag with the current global epoch.
    Seal,
    /// `g := global`, `ok := true`.
    ScanStart,
    /// `ok &= !(slot[u] pinned && slot[u].epoch != g)`.
    ScanCheck(usize),
    /// `if ok { CAS(global, g, g + 1) }`.
    Advance,
    /// Free this thread's sealed bag if it has expired.
    Free,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Node {
    Linked,
    /// Deferred by the thread, bag not sealed yet.
    Open(usize),
    /// Deferred by the thread, bag sealed at the epoch.
    Sealed(usize, u8),
    Freed,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct State {
    pc: [u8; 2],
    global: u8,
    /// `(pinned, epoch)` per slot.
    slot: [(bool, u8); 2],
    read: [u8; 2],
    /// `(g, ok)` per thread's scan.
    scan: [(u8, bool); 2],
    holds: [bool; 2],
    /// The thread's live pin was published while the node was linked.
    pinned_before_unlink: [bool; 2],
    node: Node,
}

/// What a model variant does at the two decisions the contract rests on.
#[derive(Clone, Copy)]
struct Rules {
    /// Epochs between a bag's seal and its free.
    expiry: u8,
    /// Whether an advance checks pinned slots at all.
    scan_checks_pins: bool,
}

const SOUND: Rules = Rules { expiry: 2, scan_checks_pins: true };

fn collect() -> Vec<Step> {
    let advance = [Step::ScanStart, Step::ScanCheck(0), Step::ScanCheck(1), Step::Advance];
    let mut steps = vec![Step::Seal];
    steps.extend(advance);
    steps.extend(advance);
    steps.push(Step::Free);
    steps
}

fn scripts() -> [Vec<Step>; 2] {
    use Step::*;
    let pin = [PinRead, PinPublish];
    let mut reader = Vec::new();
    for _ in 0..2 {
        reader.extend(pin);
        reader.extend([Load, Unpin]);
        reader.extend(collect());
    }
    let mut writer = Vec::new();
    writer.extend(pin);
    writer.extend([Load, UnlinkDefer, Unpin]);
    writer.extend(collect());
    writer.extend(collect());
    writer.extend(pin);
    writer.push(Unpin);
    writer.extend(collect());
    [reader, writer]
}

/// Applies thread `t`'s step; `Err` describes a contract violation.
fn step(s: &mut State, t: usize, op: Step, rules: Rules) -> Result<(), String> {
    match op {
        Step::PinRead => s.read[t] = s.global,
        Step::PinPublish => {
            s.slot[t] = (true, s.read[t]);
            s.pinned_before_unlink[t] = s.node == Node::Linked;
        }
        Step::Load => s.holds[t] |= s.node == Node::Linked,
        Step::Unpin => {
            s.slot[t] = (false, 0);
            s.holds[t] = false;
            s.pinned_before_unlink[t] = false;
        }
        Step::UnlinkDefer => {
            assert_eq!(s.node, Node::Linked, "the script unlinks once");
            s.node = Node::Open(t);
        }
        Step::Seal => {
            if s.node == Node::Open(t) {
                s.node = Node::Sealed(t, s.global);
            }
        }
        Step::ScanStart => s.scan[t] = (s.global, true),
        Step::ScanCheck(u) => {
            let (pinned, epoch) = s.slot[u];
            if rules.scan_checks_pins && pinned && epoch != s.scan[t].0 {
                s.scan[t].1 = false;
            }
        }
        Step::Advance => {
            let (g, ok) = s.scan[t];
            if ok && s.global == g {
                s.global += 1;
            }
        }
        Step::Free => {
            if let Node::Sealed(owner, sealed) = s.node {
                if owner == t && s.global - sealed >= rules.expiry {
                    for u in 0..2 {
                        if s.pinned_before_unlink[u] || s.holds[u] {
                            return Err(format!(
                                "thread {t} freed the node (sealed at epoch {sealed}, global \
                                 {}) while thread {u}'s pin from before the unlink was live: {s:?}",
                                s.global
                            ));
                        }
                    }
                    s.node = Node::Freed;
                }
            }
        }
    }
    Ok(())
}

/// Explores every interleaving; returns the first violation, or the
/// number of distinct states and of terminal states that freed the node.
fn explore(rules: Rules) -> Result<(usize, usize), String> {
    let scripts = scripts();
    let start = State {
        pc: [0, 0],
        global: 0,
        slot: [(false, 0); 2],
        read: [0; 2],
        scan: [(0, false); 2],
        holds: [false; 2],
        pinned_before_unlink: [false; 2],
        node: Node::Linked,
    };
    let mut seen = HashSet::new();
    let mut stack = vec![start];
    let mut freed_terminals = 0;
    while let Some(s) = stack.pop() {
        if !seen.insert(s) {
            continue;
        }
        let mut terminal = true;
        for (t, script) in scripts.iter().enumerate() {
            let pc = s.pc[t] as usize;
            if pc == script.len() {
                continue;
            }
            terminal = false;
            let mut next = s;
            step(&mut next, t, script[pc], rules)?;
            next.pc[t] += 1;
            stack.push(next);
        }
        if terminal && s.node == Node::Freed {
            freed_terminals += 1;
        }
    }
    Ok((seen.len(), freed_terminals))
}

#[test]
fn no_interleaving_frees_under_a_pin_from_before_the_unlink() {
    let (states, freed) = explore(SOUND).unwrap_or_else(|violation| panic!("{violation}"));
    assert!(states > 10_000, "the model explored only {states} states");
    assert!(freed > 0, "no interleaving ever freed the node: the model proves nothing");
}

#[test]
fn freeing_one_epoch_after_the_seal_is_caught() {
    let mutant = Rules { expiry: 1, ..SOUND };
    assert!(explore(mutant).is_err(), "the checker missed a free one epoch after the seal");
}

#[test]
fn an_advance_that_ignores_pins_is_caught() {
    let mutant = Rules { scan_checks_pins: false, ..SOUND };
    assert!(explore(mutant).is_err(), "the checker missed an advance past a live pin");
}

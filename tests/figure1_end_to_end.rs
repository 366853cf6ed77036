//! End-to-end Figure 1 / theorem integration tests spanning the formal
//! model (`polytm-schedule`, which also models and checks the lock-based
//! schedule) and the STM (`polytm`).

use transaction_polymorphism::schedule::theorems::check_all_def_coincides;
use transaction_polymorphism::schedule::{
    accepts, check_theorem1, check_theorem2, enumerate_interleavings, figure1_interleaving,
    figure1_lock_schedule, figure1_program, replay, Synchronization,
};

#[test]
fn figure1_full_reproduction() {
    let program = figure1_program();
    let inter = figure1_interleaving();

    // Analytic: lock yes, poly yes, mono no.
    assert!(accepts(&program, &inter, Synchronization::LockBased).accepted);
    assert!(accepts(&program, &inter, Synchronization::Polymorphic).accepted);
    assert!(!accepts(&program, &inter, Synchronization::Monomorphic).accepted);

    // The hand-over-hand lock schedule is executable and not two-phase.
    let lock = figure1_lock_schedule();
    assert_eq!(lock.validate(), Ok(()));
    assert!(!lock.is_two_phase());

    // The real STM agrees.
    let poly = replay(&program, &inter, Synchronization::Polymorphic).unwrap();
    assert!(poly.accepted);
    let mono = replay(&program, &inter, Synchronization::Monomorphic).unwrap();
    assert!(!mono.accepted);
}

#[test]
fn theorems_hold() {
    let t1 = check_theorem1();
    assert!(t1.holds, "{t1}");
    let t2 = check_theorem2();
    assert!(t2.holds, "{t2}");
    assert_eq!(check_all_def_coincides(), 640);
}

/// Cross-validation: the *real implementation* must be conservative with
/// respect to the analytic model — every schedule the STM executes
/// without aborting must be analytically acceptable. (The converse need
/// not hold: TL2-style validation rejects some acceptable schedules.)
#[test]
fn implementation_is_sound_wrt_model_on_all_figure1_interleavings() {
    let program = figure1_program();
    let mut impl_accepted = 0u32;
    let mut model_accepted = 0u32;
    for inter in enumerate_interleavings(&program) {
        for sync in [Synchronization::Monomorphic, Synchronization::Polymorphic] {
            let model_ok = accepts(&program, &inter, sync).accepted;
            let impl_ok = replay(&program, &inter, sync).unwrap().accepted;
            if impl_ok {
                impl_accepted += 1;
                assert!(
                    model_ok,
                    "UNSOUND: the STM accepted a schedule the model rejects ({sync:?}):\n{}",
                    inter.render(&program)
                );
            }
            if model_ok {
                model_accepted += 1;
            }
        }
    }
    // Sanity on volume: 420 interleavings × 2 synchronizations.
    assert!(impl_accepted > 100, "implementation accepted only {impl_accepted}");
    assert!(model_accepted >= impl_accepted);
}

/// Polymorphism is observable in the aggregate too: across all Figure 1
/// interleavings the polymorphic STM must accept strictly more schedules
/// than the monomorphic STM.
#[test]
fn polymorphic_stm_accepts_strictly_more_figure1_interleavings() {
    let program = figure1_program();
    let (mut mono_ok, mut poly_ok) = (0u32, 0u32);
    let mut poly_superset = true;
    for inter in enumerate_interleavings(&program) {
        let m = replay(&program, &inter, Synchronization::Monomorphic).unwrap().accepted;
        let p = replay(&program, &inter, Synchronization::Polymorphic).unwrap().accepted;
        mono_ok += u32::from(m);
        poly_ok += u32::from(p);
        if m && !p {
            poly_superset = false;
        }
    }
    assert!(
        poly_ok > mono_ok,
        "polymorphic STM must accept more interleavings ({poly_ok} vs {mono_ok})"
    );
    assert!(poly_superset, "monomorphic-accepted must be polymorphic-accepted");
}

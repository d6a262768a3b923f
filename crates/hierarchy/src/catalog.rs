//! A certified catalog of hierarchy values for the canonical type zoo.
//!
//! Every entry records the type's position in Jayanti's four hierarchies
//! (`h_1`, `h_1^r`, `h_m`, `h_m^r`) as an evidence-carrying interval.
//! Lower bounds marked [`Evidence::Checked`] are re-established by
//! [`verify_entry`], which model-checks the corresponding protocols —
//! including the register-free ones produced by the Theorem 5 compiler,
//! which is how `h_m ≥ 2` is witnessed for test-and-set, queue and
//! fetch-and-add *without* registers.
//!
//! The headline regularity, visible by scanning the table: for every
//! deterministic type, `h_m = h_m^r` (Theorem 5); and wherever either
//! exceeds 1 they agree even for nondeterministic types (Section 5.3).

use std::sync::Arc;

use wfc_consensus::{self as c, ConsensusSystem};
use wfc_spec::{canonical, FiniteType};

use crate::level::{Evidence, Hierarchy, HierarchyValue, Level};

/// One catalog row: a type and its four certified hierarchy values.
#[derive(Clone, Debug)]
pub struct CatalogEntry {
    /// The type (a small-arity representative of the family; the recorded
    /// levels refer to the unbounded-port family).
    pub ty: Arc<FiniteType>,
    /// `h_1`: one object, no registers.
    pub h1: HierarchyValue,
    /// `h_1^r`: one object plus registers (Herlihy's consensus number).
    pub h1r: HierarchyValue,
    /// `h_m`: many objects, no registers.
    pub hm: HierarchyValue,
    /// `h_m^r`: many objects plus registers.
    pub hmr: HierarchyValue,
    /// Context for the recorded values.
    pub notes: &'static str,
}

impl CatalogEntry {
    /// The value in the given hierarchy.
    pub fn value(&self, h: Hierarchy) -> &HierarchyValue {
        match h {
            Hierarchy::H1 => &self.h1,
            Hierarchy::H1R => &self.h1r,
            Hierarchy::HM => &self.hm,
            Hierarchy::HMR => &self.hmr,
        }
    }
}

fn lv(n: u32) -> Level {
    Level::Finite(n)
}

fn def1() -> HierarchyValue {
    HierarchyValue::exactly(
        lv(1),
        Evidence::ByDefinition,
        Evidence::Cited {
            source: "registers cannot solve 2-process consensus [4,6,14]; the type adds nothing",
        },
    )
}

fn exact_checked(n: u32, check: &'static str, upper: &'static str) -> HierarchyValue {
    HierarchyValue::exactly(
        lv(n),
        Evidence::Checked { check },
        Evidence::Cited { source: upper },
    )
}

/// Exactly level 1 because the type is trivial — the upper bound is
/// machine-checked (triviality ⇒ locally simulable, Theorem 5 first case).
fn trivial1() -> HierarchyValue {
    HierarchyValue::exactly(
        lv(1),
        Evidence::ByDefinition,
        Evidence::Checked {
            check: "trivial (single reachable response per port history): \
                    wfc_spec::triviality::is_trivial",
        },
    )
}

const ASPNES_SHIFT: &str =
    "Aspnes 2025 (arXiv:2505.01691): the consensus number of a w-bit shift register is exactly w";

const MPR_WINDOW: &str = "Mostéfaoui–Perrin–Raynal, DISC 2018: the k-sliding-window register \
                          has consensus number exactly k";

/// The certified catalog.
pub fn catalog() -> Vec<CatalogEntry> {
    let herlihy_2 = "Herlihy [7]: read-modify-write objects on two values have consensus number 2";
    vec![
        CatalogEntry {
            ty: Arc::new(canonical::boolean_register(2)),
            h1: def1(),
            h1r: def1(),
            hm: def1(),
            hmr: def1(),
            notes: "registers cannot implement 2-process consensus; machine-evidenced by the \
                    bivalence analysis of candidate protocols (wfc-explorer::bivalence)",
        },
        CatalogEntry {
            ty: Arc::new(canonical::test_and_set(2)),
            h1: HierarchyValue {
                lower: lv(1),
                lower_evidence: Evidence::ByDefinition,
                upper: lv(2),
                upper_evidence: Evidence::Cited { source: herlihy_2 },
            },
            h1r: exact_checked(
                2,
                "tas_consensus_system model-checked for 2 processes",
                herlihy_2,
            ),
            hm: exact_checked(
                2,
                "Theorem 5 compiler output: register-free TAS-only consensus, model-checked",
                herlihy_2,
            ),
            hmr: exact_checked(2, "tas_consensus_system model-checked", herlihy_2),
            notes: "the paper's Theorem 5 pins h_m = h_m^r = 2; h_1 = 1 is folklore (a lone \
                    test-and-set cannot carry the winner's input) but not re-proved here",
        },
        CatalogEntry {
            ty: Arc::new(canonical::queue(1, 1, 2)),
            h1: HierarchyValue {
                lower: lv(1),
                lower_evidence: Evidence::ByDefinition,
                upper: lv(2),
                upper_evidence: Evidence::Cited {
                    source: "Herlihy [7], queues",
                },
            },
            h1r: exact_checked(
                2,
                "queue_consensus_system model-checked for 2 processes",
                "Herlihy [7]: FIFO queues have consensus number 2",
            ),
            hm: exact_checked(
                2,
                "Theorem 5 compiler output: register-free queue-only consensus, model-checked",
                "Herlihy [7]",
            ),
            hmr: exact_checked(2, "queue_consensus_system model-checked", "Herlihy [7]"),
            notes: "pre-filled single-token queue; h_m = h_m^r by Theorem 5",
        },
        CatalogEntry {
            ty: Arc::new(canonical::stack(1, 1, 2)),
            h1: HierarchyValue {
                lower: lv(1),
                lower_evidence: Evidence::ByDefinition,
                upper: lv(2),
                upper_evidence: Evidence::Cited {
                    source: "Herlihy [7], stacks",
                },
            },
            h1r: exact_checked(
                2,
                "stack_consensus_system model-checked for 2 processes",
                "Herlihy [7]: stacks have consensus number 2",
            ),
            hm: exact_checked(
                2,
                "Theorem 5 compiler output: register-free stack-only consensus, model-checked",
                "Herlihy [7]",
            ),
            hmr: exact_checked(2, "stack_consensus_system model-checked", "Herlihy [7]"),
            notes: "pre-filled single-token stack; h_m = h_m^r by Theorem 5",
        },
        CatalogEntry {
            ty: Arc::new(canonical::swap(2, 2)),
            h1: HierarchyValue {
                lower: lv(1),
                lower_evidence: Evidence::ByDefinition,
                upper: lv(2),
                upper_evidence: Evidence::Cited { source: herlihy_2 },
            },
            h1r: exact_checked(2, "swap_consensus_system model-checked", herlihy_2),
            hm: exact_checked(
                2,
                "Theorem 5 compiler output: register-free swap-only consensus",
                herlihy_2,
            ),
            hmr: exact_checked(2, "swap_consensus_system model-checked", herlihy_2),
            notes: "read-modify-write exchange; h_m = h_m^r by Theorem 5",
        },
        CatalogEntry {
            ty: Arc::new(canonical::fetch_and_add(2, 2)),
            h1: HierarchyValue {
                lower: lv(1),
                lower_evidence: Evidence::ByDefinition,
                upper: lv(2),
                upper_evidence: Evidence::Cited { source: herlihy_2 },
            },
            h1r: exact_checked(2, "fetch_add_consensus_system model-checked", herlihy_2),
            hm: exact_checked(
                2,
                "Theorem 5 compiler output: register-free fetch-and-add-only consensus",
                herlihy_2,
            ),
            hmr: exact_checked(2, "fetch_add_consensus_system model-checked", herlihy_2),
            notes: "saturating counter; h_m = h_m^r by Theorem 5",
        },
        CatalogEntry {
            ty: Arc::new(canonical::compare_and_swap(3, 3)),
            h1: HierarchyValue::exactly(
                Level::Infinite,
                Evidence::Checked {
                    check: "cas_consensus_system model-checked register-free for n ≤ 3; the \
                            protocol is uniform in n",
                },
                Evidence::ByDefinition,
            ),
            h1r: HierarchyValue::exactly(
                Level::Infinite,
                Evidence::Cited {
                    source: "Herlihy [7]: compare-and-swap is universal",
                },
                Evidence::ByDefinition,
            ),
            hm: HierarchyValue::exactly(
                Level::Infinite,
                Evidence::Checked {
                    check: "cas_consensus_system, register-free",
                },
                Evidence::ByDefinition,
            ),
            hmr: HierarchyValue::exactly(
                Level::Infinite,
                Evidence::Cited {
                    source: "Herlihy [7]",
                },
                Evidence::ByDefinition,
            ),
            notes: "universal: one object suffices at every level",
        },
        CatalogEntry {
            ty: Arc::new(canonical::sticky_bit(3)),
            h1: HierarchyValue::exactly(
                Level::Infinite,
                Evidence::Checked {
                    check: "sticky_consensus_system model-checked register-free for n ≤ 3; \
                            uniform in n",
                },
                Evidence::ByDefinition,
            ),
            h1r: HierarchyValue::exactly(
                Level::Infinite,
                Evidence::Cited {
                    source: "Plotkin [19]: sticky bits are universal",
                },
                Evidence::ByDefinition,
            ),
            hm: HierarchyValue::exactly(
                Level::Infinite,
                Evidence::Checked {
                    check: "sticky_consensus_system, register-free",
                },
                Evidence::ByDefinition,
            ),
            hmr: HierarchyValue::exactly(
                Level::Infinite,
                Evidence::Cited {
                    source: "Plotkin [19]",
                },
                Evidence::ByDefinition,
            ),
            notes: "writes double as proposals, so the bit is a reusable consensus object",
        },
        CatalogEntry {
            ty: Arc::new(canonical::consensus(2)),
            h1: exact_checked(
                2,
                "the identity protocol on one T_{c,2} object, model-checked",
                "a 2-port type has level ≤ 2 (paper, Section 2.3)",
            ),
            h1r: exact_checked(2, "identity protocol", "2 ports"),
            hm: exact_checked(2, "identity protocol", "2 ports"),
            hmr: exact_checked(2, "identity protocol", "2 ports"),
            notes: "the consensus type itself; T_{c,n} sits at level n of every hierarchy",
        },
        CatalogEntry {
            ty: Arc::new(canonical::mute(2)),
            h1: def1(),
            h1r: def1(),
            hm: def1(),
            hmr: def1(),
            notes: "trivial (|R| = 1): locally simulable, so it adds nothing to registers — \
                    Theorem 5, first case; triviality is machine-checked",
        },
        CatalogEntry {
            ty: Arc::new(canonical::one_use_bit()),
            h1: def1(),
            h1r: def1(),
            hm: def1(),
            hmr: def1(),
            notes: "nondeterministic and strictly weaker than a register (one read, one \
                    write); the paper notes such types cannot reach level 2 with or without \
                    registers — values cited, not re-proved",
        },
        CatalogEntry {
            ty: Arc::new(canonical::shift_register(1, 2)),
            h1: trivial1(),
            h1r: trivial1(),
            hm: trivial1(),
            hmr: trivial1(),
            notes: "a 1-bit shift register is trivial: every shift returns \"0\", so it is \
                    locally simulable (Theorem 5, first case; triviality machine-checked); \
                    base case of Aspnes's h(shift_w) = w",
        },
        CatalogEntry {
            ty: Arc::new(canonical::shift_register(2, 2)),
            h1: HierarchyValue {
                lower: lv(1),
                lower_evidence: Evidence::ByDefinition,
                upper: lv(2),
                upper_evidence: Evidence::Cited {
                    source: ASPNES_SHIFT,
                },
            },
            h1r: exact_checked(
                2,
                "shift2_consensus_system model-checked for 2 processes",
                ASPNES_SHIFT,
            ),
            hm: exact_checked(
                2,
                "Theorem 5 compiler output: register-free shift-register-only consensus, \
                 model-checked",
                ASPNES_SHIFT,
            ),
            hmr: exact_checked(2, "shift2_consensus_system model-checked", ASPNES_SHIFT),
            notes: "shl/shr return the new contents, so the 2-bit instance decides races \
                    (init \"01\": left-winner sees \"10\", right-winner sees \"00\"); \
                    h_m = h_m^r by Theorem 5; 3-process impossibility swept in \
                    wfc-hierarchy::families",
        },
        CatalogEntry {
            ty: Arc::new(canonical::mpr(1, 2)),
            h1: HierarchyValue::exactly(
                lv(1),
                Evidence::ByDefinition,
                Evidence::Cited { source: MPR_WINDOW },
            ),
            h1r: HierarchyValue::exactly(
                lv(1),
                Evidence::ByDefinition,
                Evidence::Cited { source: MPR_WINDOW },
            ),
            hm: HierarchyValue::exactly(
                lv(1),
                Evidence::ByDefinition,
                Evidence::Cited { source: MPR_WINDOW },
            ),
            hmr: HierarchyValue::exactly(
                lv(1),
                Evidence::ByDefinition,
                Evidence::Cited { source: MPR_WINDOW },
            ),
            notes: "with window size 1 the object is an atomic read/write register over \
                    {0,1} plus an initial empty value, so it sits at level 1 like any \
                    register",
        },
        CatalogEntry {
            ty: Arc::new(canonical::mpr(2, 2)),
            h1: HierarchyValue {
                lower: lv(1),
                lower_evidence: Evidence::ByDefinition,
                upper: lv(2),
                upper_evidence: Evidence::Cited { source: MPR_WINDOW },
            },
            h1r: exact_checked(
                2,
                "mpr2_consensus_system model-checked for 2 processes",
                MPR_WINDOW,
            ),
            hm: exact_checked(
                2,
                "Theorem 5 compiler output: register-free sliding-window-only consensus, \
                 model-checked",
                MPR_WINDOW,
            ),
            hmr: exact_checked(2, "mpr2_consensus_system model-checked", MPR_WINDOW),
            notes: "the window's oldest entry names the first writer, so two markers decide \
                    a 2-process race; h_m = h_m^r by Theorem 5",
        },
    ]
}

/// A row whose checked bounds rest on Theorem 5: a type-name prefix, the
/// row's two-process consensus protocol with registers, and the type the
/// one-use-bit recipe comes from (`None`: the row's own type).
type Theorem5Row = (&'static str, Builder, Option<fn() -> FiniteType>);

/// A per-input-vector protocol builder.
type Builder = fn(&[bool]) -> ConsensusSystem;

const THEOREM5_ROWS: [Theorem5Row; 7] = [
    ("shift2", |i| c::shift2_consensus_system([i[0], i[1]]), None),
    ("mpr2", |i| c::mpr2_consensus_system([i[0], i[1]]), None),
    (
        "test_and_set",
        |i| c::tas_consensus_system([i[0], i[1]]),
        None,
    ),
    (
        "queue",
        |i| c::queue_consensus_system([i[0], i[1]]),
        Some(|| canonical::queue(1, 1, 2)),
    ),
    ("stack", |i| c::stack_consensus_system([i[0], i[1]]), None),
    ("swap", |i| c::swap_consensus_system([i[0], i[1]]), None),
    (
        "fetch_and_add",
        |i| c::fetch_add_consensus_system([i[0], i[1]]),
        None,
    ),
];

/// Re-establishes every [`Evidence::Checked`] lower bound of `entry` by
/// running the corresponding model checks. Returns `false` if any check
/// fails (it never should; this is the catalog's self-test, also used by
/// the benches).
pub fn verify_entry(entry: &CatalogEntry) -> bool {
    use wfc_explorer::ExploreOptions;
    let opts = ExploreOptions::default();
    let name = entry.ty.name();
    if name.starts_with("register") || name == "mute" || name == "one_use_bit" || name == "mpr1" {
        // Level-1 entries: nothing to run; triviality/weakness is either
        // by definition or cited.
        return if name == "mute" {
            wfc_spec::triviality::is_trivial(&entry.ty).unwrap_or(false)
        } else {
            true
        };
    }
    if name == "shift1" {
        // The level-1 upper bound rests on machine-checked triviality.
        return wfc_spec::triviality::is_trivial(&entry.ty).unwrap_or(false);
    }
    if let Some(&(_, build, recipe_ty)) = THEOREM5_ROWS
        .iter()
        .find(|(prefix, ..)| name.starts_with(prefix))
    {
        let recipe_ty = recipe_ty.map_or_else(|| Arc::clone(&entry.ty), |ty| Arc::new(ty()));
        let Ok(recipe) = wfc_core::OneUseRecipe::from_type(&recipe_ty) else {
            return false;
        };
        // `holds()` includes the verdict before elimination, so this one
        // pass also re-checks the register-using protocol itself.
        return wfc_core::check_theorem5(2, build, &wfc_core::OneUseSource::Recipe(recipe), &opts)
            .is_ok_and(|cert| cert.holds());
    }
    // Rows checked by a register-free protocol at 2..=`max_n` processes;
    // for `consensus` it is the identity protocol (propose directly on
    // the object).
    let verified: [(&str, Builder, usize); 3] = [
        ("compare_and_swap", c::cas_consensus_system, 3),
        ("sticky_bit", c::sticky_consensus_system, 3),
        ("consensus", identity_consensus_system, 2),
    ];
    verified
        .iter()
        .find(|(prefix, ..)| name.starts_with(prefix))
        .is_some_and(|&(_, build, max_n)| {
            (2..=max_n)
                .all(|n| c::verify_consensus_protocol(n, build, &opts).is_ok_and(|v| v.holds()))
        })
}

/// The identity implementation of consensus from a consensus object:
/// propose your input, decide the response.
pub fn identity_consensus_system(inputs: &[bool]) -> ConsensusSystem {
    use wfc_explorer::program::ProgramBuilder;
    use wfc_explorer::{ObjectInstance, System};
    let n = inputs.len();
    let ty = Arc::new(canonical::consensus(n));
    let bot = ty.state_id("⊥").unwrap();
    let objects = vec![ObjectInstance::identity_ports(Arc::clone(&ty), bot, n)];
    let programs = inputs
        .iter()
        .map(|&input| {
            let inv = ty
                .invocation_id(if input { "propose1" } else { "propose0" })
                .unwrap()
                .index() as i64;
            let mut b = ProgramBuilder::new();
            let r = b.var("r");
            b.invoke(0_i64, inv, Some(r));
            // Responses "0"/"1" are numbered 0/1: decide directly.
            b.ret(r);
            b.build().expect("well-formed")
        })
        .collect();
    ConsensusSystem {
        system: System::new(objects, programs),
        registers: Vec::new(),
        inputs: inputs.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_internally_consistent() {
        for e in catalog() {
            for h in Hierarchy::ALL {
                assert!(e.value(h).is_consistent(), "{}: {h}", e.ty.name());
            }
            // Monotonicity: h_1 ≤ h_1^r ≤ h_m^r and h_1 ≤ h_m ≤ h_m^r
            // must hold between certified bounds.
            assert!(e.h1.lower <= e.h1r.upper, "{}", e.ty.name());
            assert!(e.h1r.lower <= e.hmr.upper, "{}", e.ty.name());
            assert!(e.hm.lower <= e.hmr.upper, "{}", e.ty.name());
        }
    }

    #[test]
    fn theorem5_regularity_holds_in_the_catalog() {
        // For every deterministic type: h_m = h_m^r (Theorem 5).
        for e in catalog() {
            if e.ty.is_deterministic() {
                assert_eq!(
                    e.hm.exact(),
                    e.hmr.exact(),
                    "Theorem 5 violated in catalog for {}",
                    e.ty.name()
                );
            }
        }
    }

    #[test]
    fn above_level_one_all_recorded_values_agree() {
        // Section 5.3 consequence: if either of h_m, h_m^r exceeds 1,
        // they are equal — for all types, even nondeterministic ones.
        for e in catalog() {
            let above = |v: &HierarchyValue| v.lower > Level::Finite(1);
            if above(&e.hm) || above(&e.hmr) {
                assert_eq!(e.hm.exact(), e.hmr.exact(), "{}", e.ty.name());
            }
        }
    }

    #[test]
    fn light_entries_verify_quickly() {
        for e in catalog() {
            let name = e.ty.name().to_owned();
            if name.starts_with("register")
                || name == "mute"
                || name == "one_use_bit"
                || name == "shift1"
                || name == "mpr1"
                || name.starts_with("consensus")
            {
                assert!(verify_entry(&e), "verification failed for {name}");
            }
        }
    }

    #[test]
    fn cas_and_sticky_entries_verify() {
        for e in catalog() {
            let name = e.ty.name().to_owned();
            if name.starts_with("compare_and_swap") || name == "sticky_bit" {
                assert!(verify_entry(&e), "verification failed for {name}");
            }
        }
    }

    // The heavyweight Theorem 5 verifications (test_and_set, queue,
    // fetch_and_add) run in the crate's integration suite and benches.
    #[test]
    fn tas_entry_verifies_via_theorem5() {
        let e = catalog()
            .into_iter()
            .find(|e| e.ty.name() == "test_and_set")
            .unwrap();
        assert!(verify_entry(&e));
    }

    #[test]
    fn shift2_entry_verifies_via_theorem5() {
        let e = catalog()
            .into_iter()
            .find(|e| e.ty.name() == "shift2")
            .unwrap();
        assert!(verify_entry(&e));
    }

    #[test]
    fn mpr2_entry_verifies_via_theorem5() {
        let e = catalog()
            .into_iter()
            .find(|e| e.ty.name() == "mpr2")
            .unwrap();
        assert!(verify_entry(&e));
    }
}

//! Finite concurrent data types: the paper's 5-tuple `⟨n, Q, I, R, δ⟩`.
//!
//! A [`FiniteType`] is a table-driven representation of a concurrent data
//! type as defined in Section 2.1 of the paper. The transition function `δ`
//! maps a (state, port, invocation) triple to a *set* of (state, response)
//! outcomes; a type is *deterministic* when every such set is a singleton
//! and *oblivious* when outcomes do not depend on the port.
//!
//! Types are constructed with [`TypeBuilder`], which validates that `δ` is
//! total before producing a [`FiniteType`] ([C-VALIDATE]).

use std::collections::{BTreeSet, VecDeque};
use std::fmt;

use crate::error::BuildTypeError;
use crate::ids::{InvId, PortId, RespId, StateId};

/// One outcome of the transition function: the successor state and the
/// response returned over the invoking port.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Outcome {
    /// The successor state `q'`.
    pub next: StateId,
    /// The response `r` returned to the invoker.
    pub resp: RespId,
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨{}, {}⟩", self.next, self.resp)
    }
}

/// A finite concurrent data type `⟨n, Q, I, R, δ⟩` (paper, Section 2.1).
///
/// # Examples
///
/// ```
/// use wfc_spec::{TypeBuilder, PortId};
///
/// // A two-port bit supporting `read` and `set`.
/// let mut b = TypeBuilder::new("bit", 2);
/// let q0 = b.state("0");
/// let q1 = b.state("1");
/// let read = b.invocation("read");
/// let set = b.invocation("set");
/// let r0 = b.response("0");
/// let r1 = b.response("1");
/// let ok = b.response("ok");
/// b.oblivious_transition(q0, read, q0, r0);
/// b.oblivious_transition(q1, read, q1, r1);
/// b.oblivious_transition(q0, set, q1, ok);
/// b.oblivious_transition(q1, set, q1, ok);
/// let bit = b.build()?;
/// assert!(bit.is_deterministic());
/// assert!(bit.is_oblivious());
/// # Ok::<(), wfc_spec::BuildTypeError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FiniteType {
    name: String,
    ports: usize,
    states: Vec<String>,
    invocations: Vec<String>,
    responses: Vec<String>,
    /// The outcome sets, flattened: `δ(q, j, i)` is
    /// `delta[starts[s]..starts[s + 1]]` for the slot
    /// `s = (q * ports + j) * |I| + i`, sorted and deduplicated. One
    /// allocation instead of one per slot keeps a type small, and
    /// systems hold their types for as long as they live.
    delta: Vec<Outcome>,
    starts: Vec<usize>,
}

impl FiniteType {
    /// Returns the human-readable name of the type.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns the number of ports `n`.
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// Returns the number of states `|Q|`.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Returns the number of invocations `|I|`.
    pub fn invocation_count(&self) -> usize {
        self.invocations.len()
    }

    /// Returns the number of responses `|R|`.
    pub fn response_count(&self) -> usize {
        self.responses.len()
    }

    /// Returns the name of a state.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn state_name(&self, q: StateId) -> &str {
        &self.states[q.index()]
    }

    /// Returns the name of an invocation.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn invocation_name(&self, i: InvId) -> &str {
        &self.invocations[i.index()]
    }

    /// Returns the name of a response.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn response_name(&self, r: RespId) -> &str {
        &self.responses[r.index()]
    }

    /// Looks up a state by name.
    pub fn state_id(&self, name: &str) -> Option<StateId> {
        self.states.iter().position(|s| s == name).map(StateId::new)
    }

    /// Looks up an invocation by name.
    pub fn invocation_id(&self, name: &str) -> Option<InvId> {
        self.invocations
            .iter()
            .position(|s| s == name)
            .map(InvId::new)
    }

    /// Looks up a response by name.
    pub fn response_id(&self, name: &str) -> Option<RespId> {
        self.responses
            .iter()
            .position(|s| s == name)
            .map(RespId::new)
    }

    /// Iterates over all states.
    pub fn states(&self) -> impl Iterator<Item = StateId> + '_ {
        (0..self.states.len()).map(StateId::new)
    }

    /// Iterates over all ports.
    pub fn port_ids(&self) -> impl Iterator<Item = PortId> + '_ {
        (0..self.ports).map(PortId::new)
    }

    /// Iterates over all invocations.
    pub fn invocations(&self) -> impl Iterator<Item = InvId> + '_ {
        (0..self.invocations.len()).map(InvId::new)
    }

    /// Iterates over all responses.
    pub fn responses(&self) -> impl Iterator<Item = RespId> + '_ {
        (0..self.responses.len()).map(RespId::new)
    }

    #[inline]
    fn slot(&self, q: StateId, j: PortId, i: InvId) -> usize {
        debug_assert!(q.index() < self.states.len());
        debug_assert!(j.index() < self.ports);
        debug_assert!(i.index() < self.invocations.len());
        (q.index() * self.ports + j.index()) * self.invocations.len() + i.index()
    }

    /// Returns the outcome set `δ(q, j, i)`.
    ///
    /// The returned slice is non-empty (the builder guarantees totality),
    /// sorted, and free of duplicates.
    ///
    /// # Panics
    ///
    /// Panics if any identifier is out of range.
    pub fn outcomes(&self, q: StateId, j: PortId, i: InvId) -> &[Outcome] {
        let s = self.slot(q, j, i);
        &self.delta[self.starts[s]..self.starts[s + 1]]
    }

    /// Returns the unique outcome of `δ(q, j, i)` for a deterministic type.
    ///
    /// # Panics
    ///
    /// Panics if the outcome set is not a singleton (i.e. the type is
    /// nondeterministic at this point) or if an identifier is out of range.
    /// Use [`FiniteType::outcomes`] for nondeterministic types.
    pub fn step(&self, q: StateId, j: PortId, i: InvId) -> Outcome {
        let outs = self.outcomes(q, j, i);
        assert!(
            outs.len() == 1,
            "type `{}` is nondeterministic at ({q}, {j}, {i})",
            self.name
        );
        outs[0]
    }

    /// Returns `true` if every outcome set is a singleton (paper: `δ : Q ×
    /// N_n × I ↦ Q × R`).
    pub fn is_deterministic(&self) -> bool {
        self.starts.windows(2).all(|w| w[1] - w[0] == 1)
    }

    /// Returns `true` if outcomes never depend on the invoking port
    /// (paper: `δ(q, j₁, i) = δ(q, j₂, i)` for all `j₁, j₂`).
    pub fn is_oblivious(&self) -> bool {
        for q in self.states() {
            for i in self.invocations() {
                let first = self.outcomes(q, PortId::new(0), i);
                for j in 1..self.ports {
                    if self.outcomes(q, PortId::new(j), i) != first {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Returns the set of states reachable from `q` (inclusive) via any
    /// sequence of invocations on any ports — the paper's notion of
    /// reachability through sequential histories (Section 2.1).
    ///
    /// The result is sorted by state index.
    pub fn reachable_from(&self, q: StateId) -> Vec<StateId> {
        let mut seen = vec![false; self.states.len()];
        seen[q.index()] = true;
        let mut queue = VecDeque::from([q]);
        while let Some(s) = queue.pop_front() {
            for j in self.port_ids() {
                for i in self.invocations() {
                    for out in self.outcomes(s, j, i) {
                        if !seen[out.next.index()] {
                            seen[out.next.index()] = true;
                            queue.push_back(out.next);
                        }
                    }
                }
            }
        }
        seen.iter()
            .enumerate()
            .filter(|(_, &v)| v)
            .map(|(k, _)| StateId::new(k))
            .collect()
    }

    /// Closes `seed` under transitions taken on any port *other than*
    /// `port`. This is the interference closure used by the general
    /// triviality decider (Section 5.2): from any state in the result, the
    /// processes on other ports may have moved the object to any other state
    /// in the result without the observer on `port` taking a step.
    pub fn interference_closure(
        &self,
        seed: &BTreeSet<StateId>,
        port: PortId,
    ) -> BTreeSet<StateId> {
        let mut set = seed.clone();
        let mut queue: VecDeque<StateId> = seed.iter().copied().collect();
        while let Some(s) = queue.pop_front() {
            for j in self.port_ids() {
                if j == port {
                    continue;
                }
                for i in self.invocations() {
                    for out in self.outcomes(s, j, i) {
                        if set.insert(out.next) {
                            queue.push_back(out.next);
                        }
                    }
                }
            }
        }
        set
    }

    /// Runs a sequence of invocations on a single port of a deterministic
    /// type and returns the responses, in order, together with the final
    /// state.
    ///
    /// # Panics
    ///
    /// Panics if the type is nondeterministic along the run or any
    /// identifier is out of range.
    pub fn run(&self, start: StateId, port: PortId, invs: &[InvId]) -> (Vec<RespId>, StateId) {
        let mut q = start;
        let mut resps = Vec::with_capacity(invs.len());
        for &i in invs {
            let out = self.step(q, port, i);
            resps.push(out.resp);
            q = out.next;
        }
        (resps, q)
    }
}

impl fmt::Display for FiniteType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ⟨n={}, |Q|={}, |I|={}, |R|={}⟩",
            self.name,
            self.ports,
            self.states.len(),
            self.invocations.len(),
            self.responses.len()
        )
    }
}

/// Builder for [`FiniteType`] values ([C-BUILDER]).
///
/// Component names are interned on first use; `state`, `invocation` and
/// `response` return the identifier for an existing name rather than
/// creating a duplicate.
#[derive(Clone, Debug, Default)]
pub struct TypeBuilder {
    name: String,
    ports: usize,
    states: Vec<String>,
    invocations: Vec<String>,
    responses: Vec<String>,
    /// (state, port, invocation) → outcomes, collected densely at build time.
    transitions: Vec<(StateId, PortId, InvId, Outcome)>,
}

impl TypeBuilder {
    /// Creates a builder for a type named `name` with `ports` ports.
    pub fn new(name: impl Into<String>, ports: usize) -> Self {
        TypeBuilder {
            name: name.into(),
            ports,
            ..TypeBuilder::default()
        }
    }

    fn intern(list: &mut Vec<String>, name: &str) -> usize {
        if let Some(k) = list.iter().position(|s| s == name) {
            k
        } else {
            list.push(name.to_owned());
            list.len() - 1
        }
    }

    /// Declares (or looks up) a state by name.
    pub fn state(&mut self, name: &str) -> StateId {
        StateId::new(Self::intern(&mut self.states, name))
    }

    /// Declares (or looks up) an invocation by name.
    pub fn invocation(&mut self, name: &str) -> InvId {
        InvId::new(Self::intern(&mut self.invocations, name))
    }

    /// Declares (or looks up) a response by name.
    pub fn response(&mut self, name: &str) -> RespId {
        RespId::new(Self::intern(&mut self.responses, name))
    }

    /// Adds one outcome to `δ(from, port, inv)`.
    ///
    /// Adding more than one distinct outcome to the same triple makes the
    /// type nondeterministic.
    pub fn transition(
        &mut self,
        from: StateId,
        port: PortId,
        inv: InvId,
        to: StateId,
        resp: RespId,
    ) -> &mut Self {
        self.transitions
            .push((from, port, inv, Outcome { next: to, resp }));
        self
    }

    /// Adds the same outcome to `δ(from, j, inv)` for every port `j`:
    /// the oblivious-type convenience used by most of the canonical zoo.
    pub fn oblivious_transition(
        &mut self,
        from: StateId,
        inv: InvId,
        to: StateId,
        resp: RespId,
    ) -> &mut Self {
        for j in 0..self.ports {
            self.transition(from, PortId::new(j), inv, to, resp);
        }
        self
    }

    /// Finalizes the type, verifying that the transition function is total.
    ///
    /// # Errors
    ///
    /// Returns [`BuildTypeError`] if the type has no ports, states,
    /// invocations or responses; if a transition refers to an undeclared
    /// component; or if some `δ(q, j, i)` has no outcome.
    pub fn build(self) -> Result<FiniteType, BuildTypeError> {
        if self.ports == 0 {
            return Err(BuildTypeError::NoPorts);
        }
        if self.states.is_empty() {
            return Err(BuildTypeError::NoStates);
        }
        if self.invocations.is_empty() {
            return Err(BuildTypeError::NoInvocations);
        }
        if self.responses.is_empty() {
            return Err(BuildTypeError::NoResponses);
        }
        let slots = self.states.len() * self.ports * self.invocations.len();
        let mut entries: Vec<(usize, Outcome)> = Vec::with_capacity(self.transitions.len());
        for (q, j, i, out) in &self.transitions {
            for (what, index, limit) in [
                ("state", q.index(), self.states.len()),
                ("port", j.index(), self.ports),
                ("invocation", i.index(), self.invocations.len()),
                ("state", out.next.index(), self.states.len()),
                ("response", out.resp.index(), self.responses.len()),
            ] {
                if index >= limit {
                    return Err(BuildTypeError::UnknownComponent { what, index, limit });
                }
            }
            let slot = (q.index() * self.ports + j.index()) * self.invocations.len() + i.index();
            entries.push((slot, *out));
        }
        entries.sort_unstable();
        entries.dedup();
        // `starts[s + 1]` counts slot `s`'s outcomes, then accumulates.
        let mut starts = vec![0; slots + 1];
        for &(slot, _) in &entries {
            starts[slot + 1] += 1;
        }
        for slot in 0..slots {
            if starts[slot + 1] == 0 {
                let i = slot % self.invocations.len();
                let rest = slot / self.invocations.len();
                let j = rest % self.ports;
                let q = rest / self.ports;
                return Err(BuildTypeError::MissingTransition {
                    state: StateId::new(q),
                    port: PortId::new(j),
                    invocation: InvId::new(i),
                });
            }
            starts[slot + 1] += starts[slot];
        }
        Ok(FiniteType {
            name: self.name,
            ports: self.ports,
            states: self.states,
            invocations: self.invocations,
            responses: self.responses,
            delta: entries.into_iter().map(|(_, out)| out).collect(),
            starts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_port_bit() -> FiniteType {
        let mut b = TypeBuilder::new("bit", 2);
        let q0 = b.state("0");
        let q1 = b.state("1");
        let read = b.invocation("read");
        let set = b.invocation("set");
        let r0 = b.response("0");
        let r1 = b.response("1");
        let ok = b.response("ok");
        b.oblivious_transition(q0, read, q0, r0);
        b.oblivious_transition(q1, read, q1, r1);
        b.oblivious_transition(q0, set, q1, ok);
        b.oblivious_transition(q1, set, q1, ok);
        b.build().expect("valid type")
    }

    #[test]
    fn builder_interns_names() {
        let mut b = TypeBuilder::new("t", 1);
        let a = b.state("a");
        let a2 = b.state("a");
        assert_eq!(a, a2);
        assert_eq!(b.state("b").index(), 1);
    }

    #[test]
    fn bit_is_deterministic_and_oblivious() {
        let t = two_port_bit();
        assert!(t.is_deterministic());
        assert!(t.is_oblivious());
        assert_eq!(t.ports(), 2);
        assert_eq!(t.state_count(), 2);
    }

    #[test]
    fn step_follows_delta() {
        let t = two_port_bit();
        let q0 = t.state_id("0").unwrap();
        let q1 = t.state_id("1").unwrap();
        let set = t.invocation_id("set").unwrap();
        let read = t.invocation_id("read").unwrap();
        let out = t.step(q0, PortId::new(1), set);
        assert_eq!(out.next, q1);
        assert_eq!(t.response_name(t.step(q1, PortId::new(0), read).resp), "1");
    }

    #[test]
    fn run_collects_responses() {
        let t = two_port_bit();
        let q0 = t.state_id("0").unwrap();
        let read = t.invocation_id("read").unwrap();
        let set = t.invocation_id("set").unwrap();
        let (resps, end) = t.run(q0, PortId::new(0), &[read, set, read]);
        assert_eq!(end, t.state_id("1").unwrap());
        let names: Vec<_> = resps.iter().map(|&r| t.response_name(r)).collect();
        assert_eq!(names, ["0", "ok", "1"]);
    }

    #[test]
    fn reachability_is_inclusive_and_monotone() {
        let t = two_port_bit();
        let q0 = t.state_id("0").unwrap();
        let q1 = t.state_id("1").unwrap();
        assert_eq!(t.reachable_from(q0), vec![q0, q1]);
        // `set` is one-way: q1 cannot reach q0.
        assert_eq!(t.reachable_from(q1), vec![q1]);
    }

    #[test]
    fn interference_closure_excludes_own_port() {
        let t = two_port_bit();
        let q0 = t.state_id("0").unwrap();
        let seed: BTreeSet<StateId> = [q0].into();
        // The other port can run `set`, so both states are possible.
        let clo = t.interference_closure(&seed, PortId::new(0));
        assert_eq!(clo.len(), 2);
    }

    #[test]
    fn partial_delta_is_rejected() {
        let mut b = TypeBuilder::new("partial", 1);
        let q0 = b.state("a");
        let q1 = b.state("b");
        let i = b.invocation("poke");
        let r = b.response("ok");
        b.transition(q0, PortId::new(0), i, q1, r);
        // No transition out of q1.
        let err = b.build().unwrap_err();
        assert!(matches!(err, BuildTypeError::MissingTransition { .. }));
    }

    #[test]
    fn empty_components_are_rejected() {
        assert_eq!(
            TypeBuilder::new("t", 0).build().unwrap_err(),
            BuildTypeError::NoPorts
        );
        assert_eq!(
            TypeBuilder::new("t", 1).build().unwrap_err(),
            BuildTypeError::NoStates
        );
    }

    #[test]
    fn out_of_range_components_are_rejected() {
        let mut b = TypeBuilder::new("t", 1);
        let q = b.state("a");
        let i = b.invocation("i");
        let r = b.response("r");
        b.transition(q, PortId::new(5), i, q, r);
        assert!(matches!(
            b.build().unwrap_err(),
            BuildTypeError::UnknownComponent { what: "port", .. }
        ));
    }

    #[test]
    fn nondeterministic_outcomes_are_sorted_and_deduped() {
        let mut b = TypeBuilder::new("nd", 1);
        let q = b.state("a");
        let p = b.state("b");
        let i = b.invocation("flip");
        let r0 = b.response("0");
        let r1 = b.response("1");
        let port = PortId::new(0);
        b.transition(q, port, i, p, r1);
        b.transition(q, port, i, q, r0);
        b.transition(q, port, i, q, r0); // duplicate
        b.transition(p, port, i, p, r1);
        let t = b.build().unwrap();
        assert!(!t.is_deterministic());
        assert_eq!(t.outcomes(q, port, i).len(), 2);
    }

    #[test]
    fn display_mentions_cardinalities() {
        let t = two_port_bit();
        let s = t.to_string();
        assert!(s.contains("n=2"));
        assert!(s.contains("|Q|=2"));
    }
}

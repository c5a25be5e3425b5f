(** SAT-backed untestable-fault proofs.

    For each collapsed fault class of a netlist, decide whether some
    input assignment makes an observed output of the faulty circuit
    differ from the good one.  An untestable (redundant) fault is
    excluded from the coverage denominator: the honest correction to the
    fig-5 numbers.

    Two stages.  First a bit-parallel random-pattern fault simulation
    (a fixed-seed batch of a few hundred patterns) runs every class
    representative against the good circuit; a pattern on which an
    observed gate differs is a test, so the class is testable and needs
    no proof.  Simulation can only ever prove testability: every class
    it leaves undetected goes to the second stage, the cone-limited
    good-vs-faulty miter, where UNSAT is a {e proof} that no test
    pattern exists and SAT a test the patterns missed.  The verdict is
    the miter's wherever the miter runs, so the result equals a miter on
    every class.

    Incremental construction: each participating domain owns one solver
    holding the good circuit once; every surviving fault class then adds
    its faulty cone {e guarded by a fresh activation literal}, solves
    under the assumption of that literal, and retracts the cone with the
    unit clause of its negation — the same activation-literal discipline
    a future ATPG pass will use to enumerate test patterns. *)

type netlist := Stc_netlist.Netlist.t

type verdict = {
  total_faults : int;  (** raw fault universe, [Netlist.fault_sites] *)
  total_classes : int;  (** collapsed classes *)
  redundant : Stc_netlist.Netlist.fault list;
      (** untestable raw faults, in [fault_sites] order *)
  redundant_classes : int;
  unobservable_classes : int;
      (** classes proven untestable structurally: no observed gate in
          the fault cone (no SAT call needed) *)
}

(** [redundant ?jobs ?observed net] proves every collapsed fault class
    testable or untestable.  [observed] is the set of gate indices ever
    observed (default: the declared primary outputs); it is the collapse
    protection set, the simulation's compare set and the miter's output
    set.  [jobs] domains simulate and grade classes in parallel
    (verdicts are per-class pure, so the result is independent of
    [jobs]).  Traced as [sat.redundant] with a nested
    [sat.redundant.simulate] span; the classes simulation settles are
    counted in [sat.redundant.sim_detected]. *)
val redundant : ?jobs:int -> ?observed:int array -> netlist -> verdict

(** [testable ?observed net fault] is the miter query alone, on a fresh
    solver: [true] iff some input assignment makes a gate of [observed]
    (default: the declared primary outputs) differ under [fault].  This
    is the check {!redundant} applies to every class simulation leaves
    undetected. *)
val testable : ?observed:int array -> netlist -> Stc_netlist.Netlist.fault -> bool

(** Self-test session simulation and single-stuck-at fault grading.

    A session applies a deterministic stimulus stream to a combinational
    netlist (the registers are part of the test equipment model: LFSRs
    generate, MISRs compress - see {!Arch}) and observes a set of nets.  A
    fault is detected when any observed net differs from the fault-free
    value in any cycle.

    Grading runs on the optimized {!Engine} - structurally collapsed
    fault classes, cone-limited incremental evaluation, and optional
    fault-parallel domains.  It is detect-for-detect identical to a naive
    grader that evaluates the whole netlist per fault per batch; that
    reference is [Stc_oracle.Session], in the test-only [stc_oracle]
    library the equivalence tests and benchmarks link.

    Two deliberate modelling simplifications, both conservative:
    - compression aliasing is ignored (streams are compared directly, as
      if the MISR were ideal);
    - register contents are replayed from the fault-free run, so fault
      effects that would detour through a compressing register are not
      credited with extra detections. *)

type stimuli = int array array
(** [stimuli.(cycle).(k)] is the 0/1 value of netlist input [k]. *)

type report = {
  label : string;
  total : int;  (** raw faults graded (before collapsing) *)
  detected : int;
  coverage : float;  (** detected / total *)
  undetected : Netlist.fault list;
}

(** [run ~label netlist ~stimuli ~observed] grades every fault site of the
    netlist against the stimulus stream, observing the gates in
    [observed].  Patterns are packed {!Netlist.word_bits} per simulation
    word and faults are dropped at first detection.

    [jobs] (default 1) shards the collapsed fault list over that many
    domains.  [need_cycles] asks for exact first-detection
    cycles (feeding the [faultsim.detect_cycle.*] histograms) at the cost
    of the dominance shortcut and early-exit scans; it defaults to
    [Stc_obs.Metrics.enabled ()] so instrumented runs stay exact. *)
val run :
  ?jobs:int ->
  ?need_cycles:bool ->
  label:string ->
  Netlist.t ->
  stimuli:stimuli ->
  observed:int array ->
  report

(** [run_sessions ~label netlist sessions] grades the same fault universe
    against several sessions (e.g. the two sessions of fig. 4); a fault
    counts as detected when any session detects it.  Options as in
    {!run}. *)
val run_sessions :
  ?jobs:int ->
  ?need_cycles:bool ->
  label:string ->
  Netlist.t ->
  (stimuli * int array) list ->
  report

(** [observed_union sessions] is the sorted, duplicate-free set of gates
    observed by any of [sessions]: the observation points fault
    collapsing must protect and the redundancy prover must watch. *)
val observed_union : (stimuli * int array) list -> int array

(** [detect_histogram label] is the [faultsim.detect_cycle.<label>]
    histogram (non-alphanumeric label characters become [_]) that
    grading fills with one first-detection cycle (1-based) per detected
    raw fault. *)
val detect_histogram : string -> Stc_obs.Metrics.histogram

(** [pack stimuli] transposes a cycle-major 0/1 matrix into word-parallel
    batches: one [int array] of input words per group of
    {!Netlist.word_bits} cycles.  Thin wrapper over {!Engine.pack}. *)
val pack : stimuli -> int array list

(** [adjusted report ~redundant] excludes proven-untestable faults from
    the coverage denominator: every fault of [redundant] still sitting
    in the undetected list is dropped from both the list and [total],
    and [coverage] is recomputed as detected over the testable universe
    - the honest correction the SAT prover
    ({!Stc_sat.Prove.redundant}) enables.  Faults not present in the
    undetected list (already detected, or from another netlist) are
    ignored, so the adjustment can never inflate the numerator. *)
val adjusted : report -> redundant:Netlist.fault list -> report

(** [fault_on fault tags] finds the tag naming the fault's gate, if any;
    used to classify undetected faults (e.g. "feedback"). *)
val fault_on : Netlist.fault -> (string * int list) list -> string option

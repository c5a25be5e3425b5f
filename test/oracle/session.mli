(** Naive reference fault grader for {!Stc_faultsim.Session}: every
    fault of the raw (uncollapsed) universe is simulated by a full
    netlist evaluation per pattern batch until its first detection.  It
    charges [faultsim.gate_evals] and fills the
    [faultsim.detect_cycle.*] histograms exactly like the production
    grader, so metered runs of the two compare like with like. *)

module Session = Stc_faultsim.Session

(** [run ~label netlist ~stimuli ~observed] is the reference for
    {!Stc_faultsim.Session.run}. *)
val run :
  label:string ->
  Stc_faultsim.Netlist.t ->
  stimuli:Session.stimuli ->
  observed:int array ->
  Session.report

(** [run_sessions ~label netlist sessions] is the reference for
    {!Stc_faultsim.Session.run_sessions}. *)
val run_sessions :
  label:string ->
  Stc_faultsim.Netlist.t ->
  (Session.stimuli * int array) list ->
  Session.report

(** [grade built] is the reference for {!Stc_faultsim.Arch.grade}. *)
val grade : Stc_faultsim.Arch.built -> Session.report

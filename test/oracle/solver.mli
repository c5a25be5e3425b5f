(** Brute-force oracle for the OSTR search ({!Stc_core.Solver}). *)

(** [solve_exhaustive machine] enumerates {e all} partition pairs by brute
    force over every partition of the state set (Bell-number cost!) and
    returns the optimum.  The enumeration streams
    ({!Enumerate.partitions}), so memory stays flat; run time makes ~9
    states the practical ceiling for the [Bell(n)^2] pair scan.  Oracle
    for testing [Stc_core.Solver.solve]. *)
val solve_exhaustive : Stc_fsm.Machine.t -> Stc_core.Solver.solution

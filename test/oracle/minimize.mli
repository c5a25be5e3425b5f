(** Reference side of the two-level minimizer ({!Stc_logic.Minimize}). *)

(** [reference ?budget ?dc on] is the original list-based minimizer
    retained in {!Stc_logic.Naive}, with the same result contract as
    [Stc_logic.Minimize.minimize] (the covers are semantically
    equivalent, not cube-identical).  Benchmarks and the equivalence
    suite cross-check against it.  [budget] caps the wall-clock seconds;
    exceeding it raises {!Stc_logic.Naive.Timeout}. *)
val reference :
  ?budget:float ->
  ?dc:Stc_logic.Cover.t ->
  Stc_logic.Cover.t ->
  Stc_logic.Cover.t * Stc_logic.Minimize.report

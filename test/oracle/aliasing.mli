(** Reference for {!Stc_faultsim.Aliasing}: every fault of the raw
    (uncollapsed) universe replays every session with a full netlist
    evaluation per cycle, compressing its observed nets into a real
    {!Stc_bist.Misr}. *)

(** [measure ?cycles built] is the reference for
    {!Stc_faultsim.Aliasing.measure}. *)
val measure :
  ?cycles:int -> Stc_faultsim.Arch.built -> Stc_faultsim.Aliasing.report

(** Serial reference for {!Stc_faultsim.Seqtest}: every fault of the raw
    (uncollapsed) universe replays the random input sequences through a
    full {!Stc_netlist.Netlist.eval} per cycle, with the state register
    fed back, until a primary output differs.  The stimulus is drawn
    from the same {!Stc_util.Rng} stream as the production grader, so
    the two results compare field for field. *)

(** [run ?seed ~cycles ~state_width ~reset_code netlist] is the
    reference for {!Stc_faultsim.Seqtest.run} (same netlist shape, same
    default [seed]).
    @raise Invalid_argument if the netlist shape does not match. *)
val run :
  ?seed:int ->
  cycles:int ->
  state_width:int ->
  reset_code:int ->
  Stc_faultsim.Netlist.t ->
  Stc_faultsim.Seqtest.result

(** [run_conventional ?seed ?cycles machine] is the reference for
    {!Stc_faultsim.Seqtest.run_conventional}. *)
val run_conventional :
  ?seed:int -> ?cycles:int -> Stc_fsm.Machine.t -> Stc_faultsim.Seqtest.result

(* Untestable-fault proofs over the collapsed fault list.  See prove.mli. *)

module N = Stc_netlist.Netlist
module Trace = Stc_obs.Trace

type verdict = {
  total_faults : int;
  total_classes : int;
  redundant : N.fault list;
  redundant_classes : int;
  unobservable_classes : int;
}

let sorted_unique a =
  let a = Array.copy a in
  Array.sort compare a;
  let out = ref [] in
  Array.iteri
    (fun i g -> if i = 0 || a.(i - 1) <> g then out := g :: !out)
    a;
  Array.of_list (List.rev !out)

(* Encode the faulty copy of [cone] into [s], guarded by [act]; gates
   outside the cone share the good circuit's literals.  Returns the
   faulty literal of each cone gate (a small gate->lit table). *)
let add_faulty_cone s ~act ~good ~(net : N.t) ~fault cone =
  let const b = if b then Solver.true_lit s else Solver.false_lit s in
  let flit = Hashtbl.create (2 * Array.length cone) in
  Array.iter
    (fun g ->
      let gate = net.N.gates.(g) in
      let lit =
        if g = fault.N.gate && fault.N.pin = None then const fault.N.stuck_at
        else begin
          let read k x =
            let base =
              match Hashtbl.find_opt flit x with
              | Some l -> l
              | None -> good.(x)
            in
            if g = fault.N.gate && fault.N.pin = Some k then
              const fault.N.stuck_at
            else base
          in
          match gate with
          | N.Input _ | N.Const _ ->
            (* only reachable as the fault site, handled above *)
            good.(g)
          | N.Buf x -> read 0 x
          | N.Not x -> Solver.negate (read 0 x)
          | N.And xs ->
            Cnf.mk_and s ~guard:act (List.mapi (fun k x -> read k x) (Array.to_list xs))
          | N.Or xs ->
            Cnf.mk_or s ~guard:act (List.mapi (fun k x -> read k x) (Array.to_list xs))
          | N.Xor xs ->
            let acc = ref (read 0 xs.(0)) in
            for k = 1 to Array.length xs - 1 do
              acc := Cnf.mk_xor s ~guard:act !acc (read k xs.(k))
            done;
            !acc
          | N.Mux { sel; a; b } ->
            Cnf.mk_mux s ~guard:act (read 0 sel) (read 1 a) (read 2 b)
        end
      in
      Hashtbl.replace flit g lit)
    cone;
  flit

(* The per-class miter query on a solver that already holds the good
   circuit ([good] = its literal per gate): encode the faulty cone under a
   fresh activation literal, ask for an assignment that makes some
   observed gate differ, then retract the cone.  A fault whose cone holds
   no observed gate is [`Unobservable] without a SAT call. *)
let miter s ~good ~readers ~is_observed (net : N.t) fault =
  let cone = N.cone ~readers net fault.N.gate in
  let obs = Array.to_list cone |> List.filter (fun g -> is_observed.(g)) in
  if obs = [] then `Unobservable
  else begin
    let act = Solver.pos (Solver.new_var s) in
    let flit = add_faulty_cone s ~act ~good ~net ~fault cone in
    let diffs =
      List.map (fun o -> Cnf.mk_xor s ~guard:act (Hashtbl.find flit o) good.(o)) obs
    in
    Solver.add_clause s (Solver.negate act :: diffs);
    let verdict =
      match Solver.solve ~assumptions:[ act ] s with
      | Solver.Sat -> `Testable
      | Solver.Unsat -> `Untestable
    in
    (* retract this fault's miter for the next one *)
    Solver.add_clause s [ Solver.negate act ];
    verdict
  end

let good_solver (net : N.t) =
  let s = Solver.create () in
  let inputs = Cnf.fresh_inputs s (Array.length net.N.inputs) in
  (s, Cnf.add_netlist s net ~inputs)

let observed_set ?observed (net : N.t) =
  match observed with
  | Some o -> sorted_unique o
  | None -> sorted_unique (Array.map snd net.N.outputs)

let observed_mask (net : N.t) observed =
  let is_observed = Array.make (N.num_gates net) false in
  Array.iter (fun g -> is_observed.(g) <- true) observed;
  is_observed

let testable ?observed (net : N.t) fault =
  let s, good = good_solver net in
  let is_observed = observed_mask net (observed_set ?observed net) in
  miter s ~good ~readers:(N.readers net) ~is_observed net fault = `Testable

(* Random-pattern pre-pass: [sim_batches] words of [N.word_bits] patterns
   from a fixed seed.  A pattern on which some observed gate of the
   faulty circuit differs from the good one is a test, so a class it
   detects is testable and needs no miter.  Simulation can never show a
   class untestable; those stay for SAT. *)
let sim_batches = 8
let sim_seed = 0x5a7
let lane_mask = (1 lsl N.word_bits) - 1
let m_sim_detected = Stc_obs.Metrics.counter "sat.redundant.sim_detected"

let simulate ~jobs (net : N.t) (cl : N.collapsed) observed =
  let rng = Stc_util.Rng.create sim_seed in
  let batches =
    Array.init sim_batches (fun _ ->
        Array.map
          (fun _ -> Int64.to_int (Stc_util.Rng.bits64 rng) land lane_mask)
          net.N.inputs)
  in
  let good = Array.map (fun inputs -> N.eval net ~inputs) batches in
  let nclasses = Array.length cl.N.classes in
  let detected = Array.make nclasses false in
  Stc_util.Parallel.iter_range_local ~jobs
    ~local:(fun () -> Array.make (N.num_gates net) 0)
    nclasses
    (fun values ci ->
      let fault = cl.N.faults.(cl.N.representatives.(ci)) in
      let b = ref 0 in
      while (not detected.(ci)) && !b < sim_batches do
        N.eval_into ~fault net ~values ~inputs:batches.(!b);
        let gv = good.(!b) in
        detected.(ci) <-
          Array.exists (fun o -> (values.(o) lxor gv.(o)) land lane_mask <> 0) observed;
        incr b
      done);
  detected

let redundant ?(jobs = 1) ?observed (net : N.t) =
  Trace.span ~cat:"sat" "sat.redundant" @@ fun () ->
  let observed = observed_set ?observed net in
  let cl = N.collapse ~protected:observed net in
  let readers = N.readers net in
  let is_observed = observed_mask net observed in
  let nclasses = Array.length cl.N.classes in
  let detected =
    Trace.span ~cat:"sat" "sat.redundant.simulate" (fun () ->
        simulate ~jobs net cl observed)
  in
  let pending =
    List.filter (fun ci -> not detected.(ci)) (List.init nclasses Fun.id)
    |> Array.of_list
  in
  Stc_obs.Metrics.add m_sim_detected (nclasses - Array.length pending);
  let untestable = Array.make nclasses false in
  let unobservable = Array.make nclasses false in
  Stc_util.Parallel.iter_range_local ~jobs
    ~local:(fun () -> lazy (good_solver net))
    (Array.length pending)
    (fun solver k ->
      let ci = pending.(k) in
      let s, good = Lazy.force solver in
      let fault = cl.N.faults.(cl.N.representatives.(ci)) in
      match miter s ~good ~readers ~is_observed net fault with
      | `Testable -> ()
      | `Untestable -> untestable.(ci) <- true
      | `Unobservable ->
        untestable.(ci) <- true;
        unobservable.(ci) <- true);
  let redundant_classes = ref 0 and unobservable_classes = ref 0 in
  let idxs = ref [] in
  for ci = nclasses - 1 downto 0 do
    if untestable.(ci) then begin
      incr redundant_classes;
      Array.iter (fun fi -> idxs := fi :: !idxs) cl.N.classes.(ci)
    end;
    if unobservable.(ci) then incr unobservable_classes
  done;
  let idxs = List.sort_uniq compare !idxs in
  {
    total_faults = Array.length cl.N.faults;
    total_classes = nclasses;
    redundant = List.map (fun fi -> cl.N.faults.(fi)) idxs;
    redundant_classes = !redundant_classes;
    unobservable_classes = !unobservable_classes;
  }

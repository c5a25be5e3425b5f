module Machine = Stc_fsm.Machine
module Partition = Stc_partition.Partition
module Pair = Stc_partition.Pair
module Solver = Stc_core.Solver

let solve_exhaustive (machine : Machine.t) =
  let next = machine.next in
  let n = machine.num_states in
  let equiv = Partition.of_class_map (Stc_fsm.Equiv.classes machine) in
  (* Streamed: Bell(n)^2 pairs are visited but never materialized, so the
     memory ceiling of the old list-based enumeration is gone. *)
  let all = Enumerate.partitions n in
  let best = ref None in
  Seq.iter
    (fun pi ->
      Seq.iter
        (fun rho ->
          if
            Pair.is_symmetric_pair ~next pi rho
            && Partition.meet_subseteq pi rho equiv
          then begin
            let cost = Solver.cost_of machine ~pi ~rho in
            let sol = { Solver.pi; rho; cost } in
            match !best with
            | None -> best := Some sol
            | Some b ->
              if Solver.compare_cost cost b.Solver.cost < 0 then
                best := Some sol
          end)
        all)
    all;
  match !best with
  | Some sol -> sol
  | None -> assert false (* (identity, identity) is always admissible *)

module Netlist = Stc_faultsim.Netlist
module Engine = Stc_faultsim.Engine
module Session = Stc_faultsim.Session
module Arch = Stc_faultsim.Arch
module Trace = Stc_obs.Trace
module Metrics = Stc_obs.Metrics

(* Same registered counter as the engine's, so naive and optimized runs
   report gate evaluations on a common scale. *)
let m_gate_evals = Metrics.counter "faultsim.gate_evals"

let observe netlist ?fault ~inputs observed =
  let values = Netlist.eval ?fault netlist ~inputs in
  Metrics.add m_gate_evals (Netlist.num_gates netlist);
  Array.map (fun g -> values.(g)) observed

let report ~label ~total ~detected ~undetected =
  {
    Session.label;
    total;
    detected;
    coverage =
      (if total = 0 then 1.0 else float_of_int detected /. float_of_int total);
    undetected;
  }

let grade_naive ~hist netlist ~(packed : Engine.packed) ~observed faults =
  let golden =
    Array.map
      (fun inputs -> observe netlist ~inputs observed)
      packed.Engine.words
  in
  let w = Netlist.word_bits in
  let nb = Engine.num_batches packed in
  let undetected = ref [] and detected = ref 0 in
  List.iter
    (fun fault ->
      let rec try_batches b =
        if b >= nb then false
        else begin
          let faulty =
            observe netlist ~fault ~inputs:packed.Engine.words.(b) observed
          in
          let g = golden.(b) and m = packed.Engine.masks.(b) in
          let diff = ref 0 in
          Array.iteri
            (fun k v -> diff := !diff lor ((v lxor g.(k)) land m))
            faulty;
          if !diff <> 0 then begin
            Metrics.observe hist ((b * w) + Engine.first_lane !diff + 1);
            true
          end
          else try_batches (b + 1)
        end
      in
      if try_batches 0 then incr detected
      else undetected := fault :: !undetected)
    faults;
  (!detected, List.rev !undetected)

let run ~label netlist ~stimuli ~observed =
  Trace.span ~cat:"faultsim" ("session:" ^ label) @@ fun () ->
  let faults = Netlist.fault_sites netlist in
  let detected, undetected =
    grade_naive ~hist:(Session.detect_histogram label) netlist
      ~packed:(Engine.pack stimuli) ~observed faults
  in
  report ~label ~total:(List.length faults) ~detected ~undetected

let run_sessions ~label netlist sessions =
  Trace.span ~cat:"faultsim" ("sessions:" ^ label) @@ fun () ->
  let faults = Netlist.fault_sites netlist in
  let total = List.length faults in
  let remaining = ref faults and detected = ref 0 in
  List.iteri
    (fun k (stimuli, observed) ->
      let session_label = Printf.sprintf "%s.s%d" label (k + 1) in
      Trace.span ~cat:"faultsim" ("session:" ^ session_label) @@ fun () ->
      let d, undetected =
        grade_naive ~hist:(Session.detect_histogram session_label) netlist
          ~packed:(Engine.pack stimuli) ~observed !remaining
      in
      detected := !detected + d;
      remaining := undetected)
    sessions;
  report ~label ~total ~detected:!detected ~undetected:!remaining

let grade (built : Arch.built) =
  run_sessions ~label:built.Arch.label built.Arch.netlist built.Arch.sessions

module Trace = Stc_obs.Trace
module Metrics = Stc_obs.Metrics

type stimuli = int array array

type report = {
  label : string;
  total : int;
  detected : int;
  coverage : float;
  undetected : Netlist.fault list;
}

let pack stimuli = Array.to_list (Engine.pack stimuli).Engine.words

(* Coverage-over-patterns histogram for one session: each detected fault
   contributes its first detection cycle, so the cumulative counts show
   how coverage accumulates as the LFSR stream lengthens. *)
let detect_histogram label =
  let slug =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '-' | '_' -> c
        | _ -> '_')
      label
  in
  Metrics.histogram ("faultsim.detect_cycle." ^ slug)

let observe_detect hist ~cycle = Metrics.observe hist (cycle + 1)

let report ~label ~total ~detected ~undetected =
  {
    label;
    total;
    detected;
    coverage =
      (if total = 0 then 1.0 else float_of_int detected /. float_of_int total);
    undetected;
  }

let observed_union sessions =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (_, observed) ->
      Array.iter (fun g -> Hashtbl.replace tbl g ()) observed)
    sessions;
  Array.of_list
    (List.sort compare (Hashtbl.fold (fun g () acc -> g :: acc) tbl []))

(* Collapsed classes + cone-limited eval + fault-parallel domains; a
   fault counts as detected when any session detects it. *)
let grade ?(jobs = 1) ?need_cycles ~label ~session_labels netlist sessions =
  let need_cycles =
    match need_cycles with Some b -> b | None -> Metrics.enabled ()
  in
  (* Protect every gate any session observes: equivalences must never fold
     a fault across an observation point. *)
  let eng = Engine.create ~protected:(observed_union sessions) netlist in
  let cl = Engine.collapsed eng in
  let faults = cl.Netlist.faults in
  let num_classes = Array.length cl.Netlist.representatives in
  let active = Array.make num_classes true in
  let detected = ref 0 in
  List.iter2
    (fun session_label (stimuli, observed) ->
      Trace.span ~cat:"faultsim" ("session:" ^ session_label) @@ fun () ->
      let p = Engine.pack stimuli in
      let g = Engine.golden eng p in
      let verdicts = Engine.grade eng ~jobs ~need_cycles p g ~observed ~active in
      let hist = detect_histogram session_label in
      Array.iteri
        (fun c verdict ->
          if active.(c) then
            match verdict with
            | Engine.Undetected -> ()
            | Engine.Detected cyc ->
              active.(c) <- false;
              let members = cl.Netlist.classes.(c) in
              detected := !detected + Array.length members;
              (* Equivalent faults share the exact same faulty responses,
                 hence the same first-detection cycle: credit each raw
                 member so histograms count raw faults. *)
              (match cyc with
              | Some cycle ->
                Array.iter (fun _ -> observe_detect hist ~cycle) members
              | None -> ()))
        verdicts)
    session_labels sessions;
  let undetected = ref [] in
  for i = Array.length faults - 1 downto 0 do
    if active.(cl.Netlist.class_of.(i)) then
      undetected := faults.(i) :: !undetected
  done;
  report ~label ~total:(Array.length faults) ~detected:!detected
    ~undetected:!undetected

let run ?jobs ?need_cycles ~label netlist ~stimuli ~observed =
  grade ?jobs ?need_cycles ~label ~session_labels:[ label ] netlist
    [ (stimuli, observed) ]

let run_sessions ?jobs ?need_cycles ~label netlist sessions =
  Trace.span ~cat:"faultsim" ("sessions:" ^ label) @@ fun () ->
  grade ?jobs ?need_cycles ~label
    ~session_labels:
      (List.mapi (fun k _ -> Printf.sprintf "%s.s%d" label (k + 1)) sessions)
    netlist sessions

let adjusted (r : report) ~redundant =
  let tbl = Hashtbl.create 64 in
  List.iter (fun f -> Hashtbl.replace tbl f ()) redundant;
  let undetected =
    List.filter (fun f -> not (Hashtbl.mem tbl f)) r.undetected
  in
  let excluded = List.length r.undetected - List.length undetected in
  report ~label:r.label ~total:(r.total - excluded) ~detected:r.detected
    ~undetected

let fault_on (fault : Netlist.fault) tags =
  List.find_map
    (fun (name, gates) ->
      if List.mem fault.Netlist.gate gates then Some name else None)
    tags

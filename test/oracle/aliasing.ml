module Netlist = Stc_faultsim.Netlist
module Arch = Stc_faultsim.Arch
module Aliasing = Stc_faultsim.Aliasing
module Misr = Stc_bist.Misr

(* Observed gate values of one cycle, packed MSB-first into a word for the
   MISR (truncated to its width). *)
let observe_word values observed ~width =
  let word = ref 0 in
  Array.iteri
    (fun k g ->
      if k < width then word := (!word lsl 1) lor (values.(g) land 1))
    observed;
  !word

let measure ?cycles (built : Arch.built) =
  let net = built.Arch.netlist in
  let sessions =
    List.map
      (fun (stimuli, observed) ->
        match cycles with
        | Some c when c < Array.length stimuli ->
          (Array.sub stimuli 0 c, observed)
        | _ -> (stimuli, observed))
      built.Arch.sessions
  in
  let width =
    List.fold_left
      (fun acc (_, observed) -> max acc (min 32 (Array.length observed)))
      1 sessions
  in
  (* Per fault and session: (stream trace, final signature). *)
  let run_session ?fault (stimuli, observed) =
    let misr = Misr.create ~width ~seed:0 () in
    let trace = Array.make (Array.length stimuli) 0 in
    Array.iteri
      (fun cycle vec ->
        let values = Netlist.eval ?fault net ~inputs:vec in
        let word = observe_word values observed ~width in
        trace.(cycle) <- word;
        ignore (Misr.absorb misr word))
      stimuli;
    (trace, Misr.signature misr)
  in
  let golden = List.map (fun session -> run_session session) sessions in
  let faults = Netlist.fault_sites net in
  let stream_detected = ref 0
  and signature_detected = ref 0
  and aliased = ref 0 in
  List.iter
    (fun fault ->
      let stream = ref false and signature = ref false in
      List.iter2
        (fun session (golden_trace, golden_sig) ->
          let trace, sig_ = run_session ~fault session in
          if trace <> golden_trace then stream := true;
          if sig_ <> golden_sig then signature := true)
        sessions golden;
      if !stream then incr stream_detected;
      if !signature then incr signature_detected;
      if !stream && not !signature then incr aliased)
    faults;
  {
    Aliasing.total = List.length faults;
    stream_detected = !stream_detected;
    signature_detected = !signature_detected;
    aliased = !aliased;
    aliasing_rate =
      (if !stream_detected = 0 then 0.0
       else float_of_int !aliased /. float_of_int !stream_detected);
    misr_width = width;
  }

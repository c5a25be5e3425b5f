module Netlist = Stc_faultsim.Netlist
module Seqtest = Stc_faultsim.Seqtest
module Rng = Stc_util.Rng
module Code = Stc_encoding.Code

let lane_mask = (1 lsl Netlist.word_bits) - 1

let run ?(seed = 20240705) ~cycles ~state_width ~reset_code (net : Netlist.t)
    =
  let num_inputs = Array.length net.Netlist.inputs in
  let num_outputs = Array.length net.Netlist.outputs in
  if num_inputs <= state_width || num_outputs <= state_width then
    invalid_arg "Oracle.Seqtest.run: netlist shape mismatch";
  let primary = num_inputs - state_width in
  let output k = snd net.Netlist.outputs.(k) in
  let ns_gates = Array.init state_width output in
  let po_gates =
    Array.init (num_outputs - state_width) (fun k -> output (state_width + k))
  in
  (* One word per primary input per cycle: lane [l] of every word is an
     independent random test sequence. *)
  let rng = Rng.create seed in
  let stimulus =
    Array.init cycles (fun _ ->
        Array.init primary (fun _ ->
            Int64.to_int (Int64.logand (Rng.bits64 rng) 0x3FFFFFFFFFFFFFFFL)
            land lane_mask))
  in
  let reset =
    Array.init state_width (fun k ->
        if reset_code land (1 lsl (state_width - 1 - k)) <> 0 then lane_mask
        else 0)
  in
  (* Primary-output words of every cycle, or of the cycles up to and
     including the first one where [stop] holds. *)
  let simulate ?fault ~stop () =
    let rec go cycle state =
      if cycle >= cycles then None
      else begin
        let values =
          Netlist.eval ?fault net ~inputs:(Array.append stimulus.(cycle) state)
        in
        let read gates = Array.map (fun g -> values.(g) land lane_mask) gates in
        if stop cycle (read po_gates) then Some cycle
        else go (cycle + 1) (read ns_gates)
      end
    in
    go 0 reset
  in
  let golden = Array.make cycles [||] in
  ignore
    (simulate ~stop:(fun cycle outputs -> golden.(cycle) <- outputs; false) ());
  let faults = Netlist.fault_sites net in
  let detections =
    List.filter_map
      (fun fault ->
        simulate ~fault
          ~stop:(fun cycle outputs -> outputs <> golden.(cycle))
          ())
      faults
  in
  let total = List.length faults and detected = List.length detections in
  let detection_cycles = Array.of_list detections in
  Array.sort compare detection_cycles;
  {
    Seqtest.total;
    detected;
    coverage =
      (if total = 0 then 1.0 else float_of_int detected /. float_of_int total);
    detection_cycles;
    cycles;
  }

let run_conventional ?seed ?(cycles = 2048) machine =
  let built = Stc_faultsim.Arch.conventional machine in
  let enc = Stc_encoding.Tables.encode machine in
  let code = enc.Stc_encoding.Tables.state_code in
  run ?seed ~cycles ~state_width:code.Code.width
    ~reset_code:code.Code.codes.(machine.Stc_fsm.Machine.reset)
    built.Stc_faultsim.Arch.netlist

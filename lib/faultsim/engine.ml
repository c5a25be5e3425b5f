module Metrics = Stc_obs.Metrics
module Clock = Stc_util.Clock
module Word = Stc_bits.Word
module Arena = Stc_bits.Arena
module Parallel = Stc_util.Parallel

type stimuli = int array array

type packed = {
  cycles : int;
  words : int array array;
  masks : int array;
}

let word_bits = Netlist.word_bits

let pack (stimuli : stimuli) =
  let cycles = Array.length stimuli in
  let w = word_bits in
  let batches = (cycles + w - 1) / w in
  let num_inputs = if cycles = 0 then 0 else Array.length stimuli.(0) in
  let words =
    Array.init batches (fun b ->
        Array.init num_inputs (fun k ->
            let word = ref 0 in
            for lane = 0 to w - 1 do
              let cycle = (b * w) + lane in
              if cycle < cycles && stimuli.(cycle).(k) <> 0 then
                word := !word lor (1 lsl lane)
            done;
            !word))
  in
  let masks =
    Array.init batches (fun b ->
        let valid = min w (cycles - (b * w)) in
        (* (1 lsl 62) - 1 = max_int: exactly the 62 pattern lanes. *)
        (1 lsl valid) - 1)
  in
  { cycles; words; masks }

let num_batches p = Array.length p.words

(* Lowest set bit index = first simulation lane (cycle within the batch)
   where the faulty response differs. *)
let first_lane word =
  if word = 0 then invalid_arg "Engine.first_lane: zero difference word";
  Word.ffs word

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)
(* ------------------------------------------------------------------ *)

let m_raw = Metrics.counter "faultsim.faults.raw"
let m_classes = Metrics.counter "faultsim.faults.classes"
let m_dom_skips = Metrics.counter "faultsim.dominance_skips"
let m_gate_evals = Metrics.counter "faultsim.gate_evals"
let m_cone = Metrics.histogram "faultsim.cone_size"
let m_domain_ms = Metrics.histogram "faultsim.domain_wall_ms"

(* ------------------------------------------------------------------ *)
(* Engine: collapsed fault list plus per-site output cones              *)
(* ------------------------------------------------------------------ *)

type t = {
  net : Netlist.t;
  collapsed : Netlist.collapsed;
  cones : int array array;  (* by site gate; [||] where no fault lives *)
}

let create ?protected net =
  let collapsed = Netlist.collapse ?protected net in
  let rd = Netlist.readers net in
  let cones = Array.make (Netlist.num_gates net) [||] in
  Array.iter
    (fun rep ->
      let g = collapsed.Netlist.faults.(rep).Netlist.gate in
      if Array.length cones.(g) = 0 then begin
        let c = Netlist.cone ~readers:rd net g in
        cones.(g) <- c;
        Metrics.observe m_cone (Array.length c)
      end)
    collapsed.Netlist.representatives;
  Metrics.add m_raw (Array.length collapsed.Netlist.faults);
  Metrics.add m_classes (Array.length collapsed.Netlist.representatives);
  { net; collapsed; cones }

let netlist t = t.net

let collapsed t = t.collapsed

(* ------------------------------------------------------------------ *)
(* Golden evaluation: once per batch, full netlist, reused buffers      *)
(* ------------------------------------------------------------------ *)

type golden = int array array

let golden t (p : packed) : golden =
  let n = Netlist.num_gates t.net in
  Array.map
    (fun inputs ->
      let values = Array.make n 0 in
      Netlist.eval_into t.net ~values ~inputs;
      Metrics.add m_gate_evals n;
      values)
    p.words

(* ------------------------------------------------------------------ *)
(* Cone-limited incremental faulty evaluation                          *)
(* ------------------------------------------------------------------ *)

(* Per-domain scratch: a faulty-value overlay over the golden buffer -
   an epoch-stamped arena ([Arena.Stamped]), so clearing between faults
   is O(1). *)
type scratch = Arena.Stamped.t

let scratch t = Arena.Stamped.create (Netlist.num_gates t.net)

let all_ones = -1

(* Evaluate [fault] against one packed batch.  Only gates in the fault
   site's output cone are touched, and of those only the ones with a
   differing fanin are recomputed; a gate whose masked value matches the
   golden word is not marked, so a fault effect that dies at controlling
   side-inputs stops costing anything.  Returns the OR over observed
   gates of the masked faulty-vs-golden difference; with [stop_early]
   the scan returns at the first observed difference (verdict-only
   grading does not need the exact first lane). *)
let eval_fault t scr ~(gv : int array) ~mask ~(obs_mark : bool array)
    ~stop_early (fault : Netlist.fault) =
  let gates = t.net.Netlist.gates in
  let site = fault.Netlist.gate in
  let cone = t.cones.(site) in
  let ep = Arena.Stamped.bump scr in
  let stamp = scr.Arena.Stamped.stamp and faulty = scr.Arena.Stamped.data in
  let stuck = if fault.Netlist.stuck_at then all_ones else 0 in
  let evals = ref 1 in
  let site_val =
    match fault.Netlist.pin with
    | None -> stuck
    | Some fpin ->
      let read k x = if k = fpin then stuck else gv.(x) in
      (match gates.(site) with
      | Netlist.Buf x -> read 0 x
      | Netlist.Not x -> lnot (read 0 x)
      | Netlist.And xs ->
        let acc = ref all_ones in
        Array.iteri (fun k x -> acc := !acc land read k x) xs;
        !acc
      | Netlist.Or xs ->
        let acc = ref 0 in
        Array.iteri (fun k x -> acc := !acc lor read k x) xs;
        !acc
      | Netlist.Xor xs ->
        let acc = ref 0 in
        Array.iteri (fun k x -> acc := !acc lxor read k x) xs;
        !acc
      | Netlist.Mux { sel; a; b } ->
        let s = read 0 sel in
        (lnot s land read 1 a) lor (s land read 2 b)
      | Netlist.Input _ | Netlist.Const _ ->
        (* Pin faults are only enumerated on logic gates. *)
        gv.(site))
  in
  let site_diff = (site_val lxor gv.(site)) land mask in
  if site_diff = 0 then begin
    (* The injected value agrees with the golden one on every valid lane:
       the whole cone is unaffected (lanes are independent). *)
    Metrics.add m_gate_evals !evals;
    0
  end
  else begin
    faulty.(site) <- site_val;
    stamp.(site) <- ep;
    let diff_obs = ref (if obs_mark.(site) then site_diff else 0) in
    let nc = Array.length cone in
    (try
       for ci = 1 to nc - 1 do
         if stop_early && !diff_obs <> 0 then raise Exit;
         let idx = cone.(ci) in
         (* One pass per gate: read each operand (faulty if stamped in this
            epoch, golden otherwise) and note whether any was stamped. *)
         let dirty = ref false in
         let v =
           match gates.(idx) with
           | Netlist.Buf x ->
             if stamp.(x) = ep then (dirty := true; faulty.(x)) else gv.(x)
           | Netlist.Not x ->
             lnot (if stamp.(x) = ep then (dirty := true; faulty.(x)) else gv.(x))
           | Netlist.And xs ->
             let acc = ref all_ones in
             for k = 0 to Array.length xs - 1 do
               let x = xs.(k) in
               acc :=
                 !acc
                 land (if stamp.(x) = ep then (dirty := true; faulty.(x))
                       else gv.(x))
             done;
             !acc
           | Netlist.Or xs ->
             let acc = ref 0 in
             for k = 0 to Array.length xs - 1 do
               let x = xs.(k) in
               acc :=
                 !acc
                 lor (if stamp.(x) = ep then (dirty := true; faulty.(x))
                      else gv.(x))
             done;
             !acc
           | Netlist.Xor xs ->
             let acc = ref 0 in
             for k = 0 to Array.length xs - 1 do
               let x = xs.(k) in
               acc :=
                 !acc
                 lxor (if stamp.(x) = ep then (dirty := true; faulty.(x))
                       else gv.(x))
             done;
             !acc
           | Netlist.Mux { sel; a; b } ->
             let s =
               if stamp.(sel) = ep then (dirty := true; faulty.(sel)) else gv.(sel)
             in
             let va = if stamp.(a) = ep then (dirty := true; faulty.(a)) else gv.(a) in
             let vb = if stamp.(b) = ep then (dirty := true; faulty.(b)) else gv.(b) in
             (lnot s land va) lor (s land vb)
           | Netlist.Input _ | Netlist.Const _ -> gv.(idx)
         in
         if !dirty then begin
           incr evals;
           let d = (v lxor gv.(idx)) land mask in
           if d <> 0 then begin
             faulty.(idx) <- v;
             stamp.(idx) <- ep;
             if obs_mark.(idx) then diff_obs := !diff_obs lor d
           end
         end
       done
     with Exit -> ());
    Metrics.add m_gate_evals !evals;
    !diff_obs
  end

let obs_marks t observed =
  let mark = Array.make (Netlist.num_gates t.net) false in
  Array.iter (fun g -> mark.(g) <- true) observed;
  mark

let response t scr (g : golden) (p : packed) ~batch fault ~observed ~into =
  let gv = g.(batch) in
  let obs_mark = obs_marks t observed in
  let diff =
    eval_fault t scr ~gv ~mask:p.masks.(batch) ~obs_mark ~stop_early:false fault
  in
  Array.iteri
    (fun j gate -> into.(j) <- Arena.Stamped.get scr gate ~default:gv.(gate))
    observed;
  diff <> 0

(* ------------------------------------------------------------------ *)
(* Fault-parallel grading                                              *)
(* ------------------------------------------------------------------ *)

type verdict = Undetected | Detected of int option

(* Shard [work] (class ids) over [jobs] domains with chunked grabs; each
   domain owns its scratch buffers and writes disjoint slots of
   [verdicts]. *)
let run_sharded t ~jobs ~verdicts ~grade_one (work : int array) =
  let nw = Array.length work in
  if nw > 0 then
    Parallel.iter_range_local ~jobs
      ~local:(fun () -> (scratch t, Clock.now ()))
      ~finish:(fun (_, t0) ->
        Metrics.observe m_domain_ms
          (int_of_float (1000.0 *. Clock.elapsed ~since:t0)))
      nw
      (fun (scr, _) i ->
        let c = work.(i) in
        verdicts.(c) <- grade_one scr c)

let grade t ~jobs ~need_cycles ?(dominance = true) (p : packed) (g : golden)
    ~observed ~(active : bool array) =
  let cl = t.collapsed in
  let num_classes = Array.length cl.Netlist.representatives in
  let verdicts = Array.make num_classes Undetected in
  let obs_mark = obs_marks t observed in
  let nb = num_batches p in
  let grade_one scr c =
    let fault = cl.Netlist.faults.(cl.Netlist.representatives.(c)) in
    let rec go b =
      if b >= nb then Undetected
      else
        let diff =
          eval_fault t scr ~gv:g.(b) ~mask:p.masks.(b) ~obs_mark
            ~stop_early:(not need_cycles) fault
        in
        if diff <> 0 then
          Detected
            (if need_cycles then Some ((b * word_bits) + first_lane diff)
             else None)
        else go (b + 1)
    in
    go 0
  in
  (* Dominance shortcut: classes whose detection is implied by a dominated
     class are graded after the rest - they only need simulating when
     every dominated class escaped.  Exact first-detect cycles cannot be
     inferred this way, so the shortcut is off when cycles are wanted. *)
  let use_dom = dominance && not need_cycles in
  let deferred = ref [] and phase1 = ref [] in
  for c = num_classes - 1 downto 0 do
    if active.(c) then
      if
        use_dom
        && Array.exists (fun d -> active.(d)) cl.Netlist.dominated_by.(c)
      then deferred := c :: !deferred
      else phase1 := c :: !phase1
  done;
  run_sharded t ~jobs ~verdicts ~grade_one (Array.of_list !phase1);
  let simulate = ref [] in
  List.iter
    (fun c ->
      let implied =
        Array.exists
          (fun d ->
            active.(d) && match verdicts.(d) with Detected _ -> true | Undetected -> false)
          cl.Netlist.dominated_by.(c)
      in
      if implied then begin
        verdicts.(c) <- Detected None;
        Metrics.incr m_dom_skips
      end
      else simulate := c :: !simulate)
    !deferred;
  run_sharded t ~jobs ~verdicts ~grade_one (Array.of_list (List.rev !simulate));
  verdicts

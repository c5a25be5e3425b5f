(* One cold job: the KISS2 text of one machine arrives on stdin, the job
   runs one flow through the public call of each layer, then checks every
   output, and writes one JSON result line to stdout.

   The timed job starts at [Kiss.parse] and ends when the last stage
   returns.  Each stage is one public call, bracketed by a span recorded
   here, in the harness; the checks run after the last stage, outside the
   timed region.  A job that raises, fails a check or times out in the
   solver reports [ok = false] with the reason. *)

module Json = Stc_obs.Json
module Metrics = Stc_obs.Metrics
module Trace = Stc_obs.Trace
module Clock = Stc_util.Clock
module Rng = Stc_util.Rng
module Machine = Stc_fsm.Machine
module Kiss = Stc_fsm.Kiss
module Suite = Stc_benchmarks.Suite
module Partition = Stc_core.Partition
module Solver = Stc_core.Solver
module Realization = Stc_core.Realization
module Tables = Stc_encoding.Tables
module Code = Stc_encoding.Code
module Cover = Stc_logic.Cover
module Minimize = Stc_logic.Minimize
module Netlist = Stc_netlist.Netlist
module Arch = Stc_faultsim.Arch
module Session = Stc_faultsim.Session
module Context = Stc_analysis.Context
module Verify = Stc_analysis.Verify
module Diagnostic = Stc_analysis.Diagnostic

type flow = Selftest of { cycles : int } | Signoff

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type span = {
  name : string;
  parent : string;  (** ["job"] for the stages that make up the job wall *)
  start_ns : int;  (** monotonic clock, shared by every process *)
  stop_ns : int;
  minor_words : float;  (** [Gc.minor_words] delta; 0 for imported spans *)
}

let now () = Int64.to_int (Clock.now_ns ())
let spans = ref []

let stage ?(parent = "job") name f =
  let m0 = Gc.minor_words () in
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  let minor_words = Gc.minor_words () -. m0 in
  spans := { name; parent; start_ns = t0; stop_ns = t1; minor_words } :: !spans;
  r

(* The program's own "minimize" spans that fall inside [outer]: the
   minimizations [Context.of_realization] runs internally, in call order
   (C1, C2, Lambda).  Only recorded when the program's tracer is on. *)
let minimize_spans_within outer =
  let open_at = ref None and found = ref [] in
  List.iter
    (fun (e : Trace.event) ->
      if e.Trace.name = "minimize" then
        match e.Trace.phase, !open_at with
        | Trace.Begin, _ -> open_at := Some e.Trace.ts_ns
        | Trace.End, Some t0 ->
          open_at := None;
          if t0 >= outer.start_ns && e.Trace.ts_ns <= outer.stop_ns then
            found := (t0, e.Trace.ts_ns) :: !found
        | _ -> ())
    (Trace.events ());
  List.rev !found

(* ------------------------------------------------------------------ *)
(* Correctness checks (outside the timed region)                       *)
(* ------------------------------------------------------------------ *)

exception Check_failed of string

let require cond fmt =
  Printf.ksprintf (fun msg -> if not cond then raise (Check_failed msg)) fmt

let word_bits ~width word = Array.init width (fun k -> (word lsr (width - 1 - k)) land 1)

let read_word values gates =
  Array.fold_left (fun acc g -> (acc lsl 1) lor (values.(g) land 1)) 0 gates

let outputs_with_prefix (net : Netlist.t) prefix =
  Array.to_list net.Netlist.outputs
  |> List.filter (fun (name, _) -> String.starts_with ~prefix name)
  |> List.map snd |> Array.of_list

(* Seeded co-simulation of the fig. 4 netlist as a sequential circuit
   against [Machine.step]: R1 and R2 start at the codes of the reset
   state's classes; each cycle feeds a random input symbol, compares the
   Lambda outputs with the specified output code, and loads R1 from C2
   and R2 from C1, as in Theorem 1. *)
let co_simulate (p : Tables.pipeline) (net : Netlist.t) ~steps ~seed =
  let r = p.Tables.realization in
  let machine = r.Realization.spec in
  let enc = p.Tables.enc in
  let iw = enc.Tables.input_width in
  let w1 = p.Tables.code1.Code.width and w2 = p.Tables.code2.Code.width in
  let c1_out = outputs_with_prefix net "r2n" in
  let c2_out = outputs_with_prefix net "r1n" in
  let po_out = outputs_with_prefix net "po" in
  require (Array.length c1_out = w2 && Array.length c2_out = w1)
    "netlist register widths %d/%d, codes %d/%d" (Array.length c2_out)
    (Array.length c1_out) w1 w2;
  let reset = machine.Machine.reset in
  let r1 = ref p.Tables.code1.Code.codes.(Partition.class_of r.Realization.pi reset) in
  let r2 = ref p.Tables.code2.Code.codes.(Partition.class_of r.Realization.rho reset) in
  let state = ref reset in
  let values = Array.make (Netlist.num_gates net) 0 in
  let rng = Rng.create seed in
  for cycle = 1 to steps do
    let i = Rng.int rng machine.Machine.num_inputs in
    let s', o = Machine.step machine !state i in
    let inputs =
      Array.concat [ word_bits ~width:iw i; word_bits ~width:w1 !r1; word_bits ~width:w2 !r2 ]
    in
    Netlist.eval_into net ~values ~inputs;
    let got = read_word values po_out in
    require (got = enc.Tables.output_codes.(o))
      "co-simulation: cycle %d output %d, specified %d" cycle got
      enc.Tables.output_codes.(o);
    state := s';
    r1 := read_word values c2_out;
    r2 := read_word values c1_out
  done

let check_solution machine (result : Solver.result) r =
  require (not result.Solver.stats.Solver.timed_out) "solver timed out";
  (match Solver.validate machine result.Solver.best with
   | Ok () -> ()
   | Error msg -> require false "Solver.validate: %s" msg);
  require (Realization.realizes r) "Realization.realizes is false";
  (* Factor sizes of the Table-1 row the solver finds on this stand-in. *)
  match Suite.find machine.Machine.name with
  | None -> ()
  | Some spec ->
    let got = (Realization.num_s1 r, Realization.num_s2 r) in
    let e = spec.Suite.expected in
    let sorted (a, b) = (min a b, max a b) in
    require
      (sorted got = sorted (e.Suite.s1, e.Suite.s2))
      "factors %dx%d, Suite.expected %dx%d" (fst got) (snd got) e.Suite.s1 e.Suite.s2

let check_cover label ~on ~dc cover =
  require (Minimize.verify ~on ~dc cover) "Minimize.verify failed on %s" label

(* ------------------------------------------------------------------ *)
(* Flows                                                               *)
(* ------------------------------------------------------------------ *)

(* Quality and size facts of one job's result. *)
type facts = {
  flipflops : int;
  gates : int;
  literals : int;
  on_cubes : int;
  dc_cubes : int;
  cubes_in : int;
  cubes_out : int;
  iterations : int option;  (** minimize reports; [None] inside a context *)
  detected : int option;
  total : int option;
  redundant : int option;  (** RED001 diagnostics *)
}

let literals cover = snd (Cover.cost cover)

let sum f covers = List.fold_left (fun acc c -> acc + f c) 0 covers

let solve_and_realize text ~name =
  let machine = stage "fsm.parse" (fun () -> Kiss.parse ~name text) in
  let result = stage "core.solve" (fun () -> Solver.solve machine) in
  let r = stage "core.realize" (fun () -> Realization.of_solution machine result.Solver.best) in
  (machine, result, r)

let selftest ~cycles text ~name =
  let machine, result, r = solve_and_realize text ~name in
  let p = stage "encoding.tables" (fun () -> Tables.pipeline r) in
  let min label ~dc on = stage ("logic.minimize." ^ label) (fun () -> Minimize.minimize ~dc on) in
  let c1, rep1 = min "c1" ~dc:p.Tables.c1_dc p.Tables.c1_on in
  let c2, rep2 = min "c2" ~dc:p.Tables.c2_dc p.Tables.c2_on in
  let lambda, rep3 = min "lambda" ~dc:p.Tables.lambda_dc p.Tables.lambda_on in
  let built = stage "faultsim.arch" (fun () -> Arch.pipeline ~cycles ~covers:(c1, c2, lambda) p) in
  (* need_cycles:false in every mode: [Session.run] would otherwise turn
     on the exact first-detection grader whenever metrics are enabled. *)
  let report = stage "faultsim.grade" (fun () -> Arch.grade ~need_cycles:false built) in
  let stop_ns = now () in
  let check ~seed =
    check_solution machine result r;
    check_cover "c1" ~on:p.Tables.c1_on ~dc:p.Tables.c1_dc c1;
    check_cover "c2" ~on:p.Tables.c2_on ~dc:p.Tables.c2_dc c2;
    check_cover "lambda" ~on:p.Tables.lambda_on ~dc:p.Tables.lambda_dc lambda;
    co_simulate p built.Arch.netlist ~steps:2000 ~seed
  in
  let reports = [ rep1; rep2; rep3 ] in
  let facts =
    {
      flipflops = built.Arch.flipflops;
      gates = Netlist.num_gates built.Arch.netlist;
      literals = sum literals [ c1; c2; lambda ];
      on_cubes = sum Cover.size [ p.Tables.c1_on; p.Tables.c2_on; p.Tables.lambda_on ];
      dc_cubes = sum Cover.size [ p.Tables.c1_dc; p.Tables.c2_dc; p.Tables.lambda_dc ];
      cubes_in = sum (fun (r : Minimize.report) -> r.Minimize.initial_cubes) reports;
      cubes_out = sum (fun (r : Minimize.report) -> r.Minimize.final_cubes) reports;
      iterations = Some (sum (fun (r : Minimize.report) -> r.Minimize.iterations) reports);
      detected = Some report.Session.detected;
      total = Some report.Session.total;
      redundant = None;
    }
  in
  (result, facts, check, stop_ns)

let signoff text ~name =
  let machine, result, r = solve_and_realize text ~name in
  let ctx = stage "analysis.context" (fun () -> Context.of_realization r) in
  let prove label pass = stage label (fun () -> Verify.run ~select:[ pass ] ctx) in
  let diags =
    List.concat
      [
        prove "analysis.cec" "cec";
        prove "analysis.net_prove" "net-prove";
        prove "analysis.sat_redundant" "sat-redundant";
      ]
  in
  let stop_ns = now () in
  let minimize_spans =
    match List.find_opt (fun s -> s.name = "analysis.context") !spans with
    | Some outer when Trace.enabled () -> minimize_spans_within outer
    | _ -> []
  in
  if List.length minimize_spans = 3 then
    List.iter2
      (fun label (t0, t1) ->
        spans :=
          { name = "logic.minimize." ^ label; parent = "analysis.context";
            start_ns = t0; stop_ns = t1; minor_words = 0.0 }
          :: !spans)
      [ "c1"; "c2"; "lambda" ] minimize_spans;
  let fig4 =
    match List.find_opt (fun t -> t.Context.net_label = "fig4") ctx.Context.netlists with
    | Some t -> t.Context.netlist
    | None -> raise (Check_failed "context has no fig4 netlist")
  in
  let blocks = ctx.Context.blocks in
  let count code = List.length (List.filter (fun d -> d.Diagnostic.code = code) diags) in
  let check ~seed =
    check_solution machine result r;
    require
      (minimize_spans = [] || List.length minimize_spans = 3)
      "context ran %d minimizations, expected 3" (List.length minimize_spans);
    List.iter
      (fun b ->
        check_cover b.Context.block_label ~on:b.Context.on ~dc:b.Context.dc b.Context.minimized)
      blocks;
    co_simulate (Tables.pipeline r) fig4 ~steps:2000 ~seed;
    let errors = Diagnostic.count Diagnostic.Error diags in
    require (errors = 0) "%d error diagnostics, first %s" errors
      (match List.find_opt (fun d -> d.Diagnostic.severity = Diagnostic.Error) diags with
       | Some d -> d.Diagnostic.code ^ " " ^ d.Diagnostic.message
       | None -> "");
    (* CEC008: the naive minimizer hit its wall-clock budget, so a step's
       time would be set by that cap rather than by the work. *)
    require (count "CEC008" = 0) "CEC008: naive minimizer budget reached"
  in
  let facts =
    {
      flipflops = Realization.flipflops r;
      gates = Netlist.num_gates fig4;
      literals = sum (fun b -> literals b.Context.minimized) blocks;
      on_cubes = sum (fun b -> Cover.size b.Context.on) blocks;
      dc_cubes = sum (fun b -> Cover.size b.Context.dc) blocks;
      cubes_in = sum (fun b -> Cover.size b.Context.on) blocks;
      cubes_out = sum (fun b -> Cover.size b.Context.minimized) blocks;
      iterations = None;
      detected = None;
      total = None;
      redundant = Some (count "RED001");
    }
  in
  (result, facts, check, stop_ns)

(* ------------------------------------------------------------------ *)
(* Result line                                                         *)
(* ------------------------------------------------------------------ *)

(* Counters the program keeps itself, read after the last stage. *)
let program_counters =
  [
    "minimize.expand_raises_attempted"; "minimize.expand_raises_accepted";
    "minimize.tautology_calls"; "minimize.tautology_memo_hits";
    "faultsim.faults.raw"; "faultsim.faults.classes"; "faultsim.gate_evals";
    "faultsim.dominance_skips"; "sat.solves"; "sat.conflicts"; "sat.decisions";
  ]

let span_json s =
  Json.Obj
    [
      ("name", Json.String s.name);
      ("parent", Json.String s.parent);
      ("start_ns", Json.Int s.start_ns);
      ("stop_ns", Json.Int s.stop_ns);
      ("minor_words", Json.Float s.minor_words);
    ]

let opt_int = function None -> Json.Null | Some v -> Json.Int v

let run ~flow ~name ~job ~seed ~traced =
  let text = In_channel.input_all stdin in
  if traced then begin
    Metrics.set_enabled true;
    Trace.set_enabled true
  end;
  let base = [ ("job", Json.Int job); ("machine", Json.String name) ] in
  let fields =
    let t0 = now () in
    match
      match flow with
      | Selftest { cycles } -> selftest ~cycles text ~name
      | Signoff -> signoff text ~name
    with
    | exception e -> [ ("ok", Json.Bool false); ("failure", Json.String (Printexc.to_string e)) ]
    | result, facts, check, t1 ->
      let wall_ns = t1 - t0 in
      let heap = (Gc.quick_stat ()).Gc.top_heap_words in
      let staged =
        List.fold_left
          (fun acc s -> if s.parent = "job" then acc + (s.stop_ns - s.start_ns) else acc)
          0 !spans
      in
      let counters =
        List.map
          (fun c ->
            let v = match Metrics.find c with Some (Metrics.Counter v) -> v | _ -> 0 in
            (c, Json.Int v))
          program_counters
      in
      let stats = result.Solver.stats in
      let failure =
        match
          check ~seed;
          (* Stage ledger: the stages must account for the job wall. *)
          require
            (float_of_int (wall_ns - staged) < 0.05 *. float_of_int wall_ns)
            "stages cover %d of %d ns" staged wall_ns
        with
        | () -> None
        | exception Check_failed msg -> Some msg
        | exception e -> Some ("check raised " ^ Printexc.to_string e)
      in
      [
        ("ok", Json.Bool (failure = None));
        ("failure", match failure with None -> Json.Null | Some m -> Json.String m);
        ("wall_ns", Json.Int wall_ns);
        ("top_heap_words", Json.Int heap);
        ("spans", Json.List (List.rev_map span_json !spans));
        ("flipflops", Json.Int facts.flipflops);
        ("gates", Json.Int facts.gates);
        ("literals", Json.Int facts.literals);
        ("on_cubes", Json.Int facts.on_cubes);
        ("dc_cubes", Json.Int facts.dc_cubes);
        ("cubes_in", Json.Int facts.cubes_in);
        ("cubes_out", Json.Int facts.cubes_out);
        ("iterations", opt_int facts.iterations);
        ("detected", opt_int facts.detected);
        ("total", opt_int facts.total);
        ("redundant", opt_int facts.redundant);
        ("investigated", Json.Int stats.Solver.investigated);
        ("pruned", Json.Int stats.Solver.pruned);
        ("deduped", Json.Int stats.Solver.deduped);
        ("memo_hits", Json.Int stats.Solver.memo_hits);
        ("basis_size", Json.Int stats.Solver.basis_size);
        ("counters", Json.Obj counters);
      ]
  in
  print_endline (Json.to_string (Json.Obj (base @ fields)))

(* Whole-flow benchmark driver.

     stcbench.exe --workload W --seed N --seconds S --trace 0|1

   Closed loop with one client: each job starts after the previous one
   ends, and each job is a fresh process ([stcbench.exe job ...], see
   job.ml), so every job pays the cold cost a user of [ostr] pays.  The
   parent renders the workload's machines to KISS2 text during set-up;
   the seed orders the jobs of each pass over the machines.

   With --trace 0 the run measures the end-to-end metrics.  With --trace 1
   every job runs twice, untraced and then with the program's metrics
   registry and tracer on, and the run reports the per-layer ledger of the
   traced jobs and the cost of tracing.  The last line of stdout is one
   JSON object: correct, attempted, failed, metrics. *)

module Json = Stc_obs.Json
module Clock = Stc_util.Clock
module Rng = Stc_util.Rng
module Kiss = Stc_fsm.Kiss
module Suite = Stc_benchmarks.Suite
module Netlist = Stc_netlist.Netlist
module Arch = Stc_faultsim.Arch
module Session = Stc_faultsim.Session

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type workload = { name : string; machines : string list; flow : Job.flow }

(* The Table-1 stand-ins without s1 (a cold job takes ~150 s) and tbk
   (its own workload). *)
let corpus = List.filter (fun n -> n <> "s1" && n <> "tbk") Suite.names

let workloads =
  [
    { name = "corpus"; machines = corpus; flow = Job.Selftest { cycles = 1024 } };
    { name = "tbk-bist"; machines = [ "tbk" ]; flow = Job.Selftest { cycles = 4096 } };
    { name = "verify"; machines = corpus; flow = Job.Signoff };
  ]

(* The netlists the sign-off flow proves are the ones the corpus
   self-test grades. *)
let grading_cycles w = match w.flow with Job.Selftest { cycles } -> cycles | Job.Signoff -> 1024

(* ------------------------------------------------------------------ *)
(* Child processes                                                     *)
(* ------------------------------------------------------------------ *)

let started = Clock.now ()

(* Every run must end well inside 180 s, whatever a job does. *)
let run_deadline = 150.0

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

(* Run [stcbench.exe args] with [input] on stdin; kill it at the run
   deadline.  Returns the exit status (None on a kill) and stdout. *)
let spawn args ~input =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid = Unix.create_process exe (Array.append [| exe |] args) in_r out_w Unix.stderr in
  Unix.close in_r;
  Unix.close out_w;
  (try write_all in_w input 0 with Unix.Unix_error _ -> ());
  Unix.close in_w;
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let rec read () =
    let left = run_deadline -. Clock.elapsed ~since:started in
    if left <= 0.0 then false
    else
      match Unix.select [ out_r ] [] [] left with
      | [], _, _ -> false
      | _ ->
        let n = Unix.read out_r chunk 0 (Bytes.length chunk) in
        n = 0 || (Buffer.add_subbytes buf chunk 0 n; read ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> read ()
  in
  let finished = read () in
  if not finished then Unix.kill pid Sys.sigkill;
  Unix.close out_r;
  let _, status = Unix.waitpid [] pid in
  ((if finished then Some status else None), Buffer.contents buf)

(* A job as the parent sees it: [result] is the child's JSON line. *)
type job = {
  machine : string;
  traced : bool;
  ok : bool;
  failure : string;
  wall : float;  (** seconds, parse to last stage *)
  result : Json.t;
}

let field key j = Option.value ~default:Json.Null (Json.member key j)
let int_of = function Json.Int v -> v | Json.Float f -> int_of_float f | _ -> 0
let int_field key j = int_of (field key j)
let opt_int_field key j = match field key j with Json.Int v -> Some v | _ -> None

let last_line s =
  String.split_on_char '\n' s |> List.filter (fun l -> String.trim l <> "") |> List.rev
  |> function l :: _ -> l | [] -> ""

let run_job w ~id ~seed ~traced (name, text) =
  let flow, cycles =
    match w.flow with Job.Selftest { cycles } -> ("selftest", cycles) | Job.Signoff -> ("signoff", 0)
  in
  let args =
    [| "job"; "--flow"; flow; "--cycles"; string_of_int cycles; "--name"; name;
       "--job"; string_of_int id; "--seed"; string_of_int seed;
       "--trace"; (if traced then "1" else "0") |]
  in
  let status, out = spawn args ~input:text in
  let failed failure = { machine = name; traced; ok = false; failure; wall = 0.0; result = Json.Null } in
  match status with
  | None -> failed "killed at the run deadline"
  | Some (Unix.WEXITED 0) -> (
    match Json.parse (last_line out) with
    | Error msg -> failed ("unreadable result: " ^ msg)
    | Ok result ->
      let ok = field "ok" result = Json.Bool true in
      let failure = match field "failure" result with Json.String m -> m | _ -> "" in
      let wall = float_of_int (int_field "wall_ns" result) *. 1e-9 in
      { machine = name; traced; ok; failure; wall; result })
  | Some (Unix.WEXITED c) -> failed (Printf.sprintf "exit code %d" c)
  | Some (Unix.WSIGNALED s | Unix.WSTOPPED s) -> failed (Printf.sprintf "signal %d" s)

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    (* nearest rank *)
    a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sumf f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

(* Build the workload's machines, render them to KISS2 text, and start
   one job process that exits at once (process start plus the program's
   module initialisation, which every cold job pays before [Kiss.parse]). *)
let setup w =
  let texts =
    List.map
      (fun name ->
        match Suite.find name with
        | Some spec -> (name, Kiss.print (Suite.machine spec))
        | None -> failwith ("unknown machine " ^ name))
      w.machines
  in
  (match spawn [| "probe" |] ~input:"" with
   | Some (Unix.WEXITED 0), out when String.trim out = "ready" -> ()
   | _ -> failwith "probe process failed");
  texts

(* ------------------------------------------------------------------ *)
(* The staged flow must be the program [ostr selftest] runs            *)
(* ------------------------------------------------------------------ *)

let out_dir = "perfbench/out"

let write_out name json =
  let path = Filename.concat out_dir name in
  try
    (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
    Json.write path json;
    path
  with Sys_error msg ->
    prerr_endline ("not written: " ^ msg);
    path

(* Outside timing, [Arch.pipeline_of_machine] and then [Arch.grade] run on
   each parsed machine; the staged jobs must give the same flip-flops,
   gate count and detected/total.  The answer depends only on this
   executable and the inputs, so it is computed once per build and
   workload and kept in [out_dir] under their digest; every run compares
   its jobs against it.  Returns the graded (detected, total) per machine
   and the mismatches. *)
let cli_match w texts jobs =
  let cycles = grading_cycles w in
  let key =
    Digest.string
      (String.concat "\n" (Digest.file Sys.executable_name :: string_of_int cycles :: List.map snd texts))
  in
  let file = Printf.sprintf "cli-%s-%s.json" w.name (Digest.to_hex key) in
  let compute () =
    let rows =
      List.map
        (fun (name, text) ->
          let built = Arch.pipeline_of_machine ~cycles (Kiss.parse ~name text) in
          let report = Arch.grade ~need_cycles:false built in
          Json.Obj
            [
              ("machine", Json.String name);
              ("flipflops", Json.Int built.Arch.flipflops);
              ("gates", Json.Int (Netlist.num_gates built.Arch.netlist));
              ("detected", Json.Int report.Session.detected);
              ("total", Json.Int report.Session.total);
            ])
        texts
    in
    ignore (write_out file (Json.List rows));
    rows
  in
  let reference =
    match Json.parse_file (Filename.concat out_dir file) with
    | Ok (Json.List rows) when List.length rows = List.length texts -> rows
    | _ | (exception Sys_error _) -> compute ()
  in
  List.fold_left
    (fun (graded, errors) row ->
      let name = match field "machine" row with Json.String n -> n | _ -> "" in
      let errors =
        match List.find_opt (fun j -> j.machine = name && j.ok) jobs with
        | None -> errors
        | Some j ->
          let staged k = opt_int_field k j.result and cli k = opt_int_field k row in
          let same k = staged k = cli k in
          let graded_same = staged "detected" = None || (same "detected" && same "total") in
          if same "flipflops" && same "gates" && graded_same then errors
          else Printf.sprintf "%s: staged flow differs from Arch.pipeline_of_machine" name :: errors
      in
      ((name, (int_field "detected" row, int_field "total" row)) :: graded, errors))
    ([], []) reference

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { mname : string; value : float; unit_ : string }

let metric mname unit_ value = { mname; value; unit_ }

(* One result per distinct machine: the first passing job.  Repeated
   jobs of one machine must agree on every output fact. *)
let quality_facts = [ "flipflops"; "gates"; "literals"; "detected"; "total"; "redundant" ]

let per_machine w jobs =
  let errors = ref [] in
  let firsts =
    List.filter_map
      (fun name ->
        match List.filter (fun j -> j.machine = name && j.ok) jobs with
        | [] -> None
        | first :: rest ->
          let key j = List.map (fun k -> field k j.result) quality_facts in
          if List.exists (fun j -> key j <> key first) rest then
            errors := (name ^ ": repeated jobs disagree") :: !errors;
          Some (name, first.result))
      w.machines
  in
  (firsts, !errors)

let end_to_end ~setup_s ~graded w jobs =
  let ok = List.filter (fun j -> j.ok) jobs in
  let walls = List.map (fun j -> j.wall) ok in
  let firsts, _ = per_machine w jobs in
  let total key = List.fold_left (fun acc (_, r) -> acc + int_field key r) 0 firsts in
  let detected, faults =
    List.fold_left (fun (d, t) (_, (d', t')) -> (d + d', t + t')) (0, 0) graded
  in
  let peak_words =
    List.fold_left (fun acc j -> max acc (int_field "top_heap_words" j.result)) 0 ok
  in
  [
    metric "setup_s" "s" setup_s;
    metric "jobs_per_s" "1/s" (float_of_int (List.length ok) /. sumf Fun.id walls);
    metric "job_s.p50" "s" (median walls);
    metric "peak_heap_mb" "MB" (float_of_int (peak_words * (Sys.word_size / 8)) /. 1048576.0);
    metric "ff_total" "count" (float_of_int (total "flipflops"));
    metric "literals_total" "count" (float_of_int (total "literals"));
    metric "gates_total" "count" (float_of_int (total "gates"));
    metric "coverage_pct" "%" (100.0 *. float_of_int detected /. float_of_int faults);
  ]

(* Lines printed before the result: the end-to-end metrics that the
   result line cannot carry on every workload. *)
let end_to_end_extra w jobs =
  let n = List.length jobs in
  let ok = List.filter (fun j -> j.ok) jobs in
  let walls = List.map (fun j -> j.wall) ok in
  let samples = List.length walls in
  let firsts, _ = per_machine w jobs in
  let failed = n - List.length ok in
  [
    Printf.sprintf "fail_frac %.4f (%d of %d jobs)" (float_of_int failed /. float_of_int n) failed n;
    Printf.sprintf "job_s.p50 over %d samples" samples;
    (if samples >= 100 then Printf.sprintf "job_s.p90 %.6f s (%d samples)" (quantile 0.9 walls) samples
     else Printf.sprintf "job_s.p90 n/a (%d samples, needs 100)" samples);
    (match w.flow with
     | Job.Signoff ->
       Printf.sprintf "redundant_proved %d count"
         (List.fold_left (fun acc (_, r) -> acc + int_field "redundant" r) 0 firsts)
     | Job.Selftest _ -> "redundant_proved n/a (no SAT proofs in this flow)");
  ]

let spans_of j =
  match field "spans" j.result with
  | Json.List l ->
    List.map
      (fun s ->
        let str k = match field k s with Json.String v -> v | _ -> "" in
        let minor = match field "minor_words" s with Json.Float f -> f | v -> float_of_int (int_of v) in
        (str "name", str "parent", int_field "start_ns" s, int_field "stop_ns" s, minor))
      l
  | _ -> []

(* Stage groups of the ledger. *)
let synth_stages =
  [ "encoding.tables"; "logic.minimize.c1"; "logic.minimize.c2"; "logic.minimize.lambda";
    "faultsim.arch"; "analysis.context" ]

let check_stages =
  [ "faultsim.grade"; "analysis.cec"; "analysis.net_prove"; "analysis.sat_redundant" ]

let all_stages =
  [ "fsm.parse"; "core.solve"; "core.realize" ] @ synth_stages @ check_stages

(* Per-layer ledger of the traced jobs, per pass over the workload's
   machines.  Returns the metrics of the result line and the full table. *)
let per_layer w jobs =
  let traced = List.filter (fun j -> j.traced && j.ok) jobs in
  let untraced = List.filter (fun j -> (not j.traced) && j.ok) jobs in
  let passes = float_of_int (List.length traced) /. float_of_int (List.length w.machines) in
  let spans = List.concat_map spans_of traced in
  let stage_s ?(top = false) names =
    sumf
      (fun (n, p, t0, t1, _) ->
        if List.mem n names && ((not top) || p = "job") then float_of_int (t1 - t0) *. 1e-9 else 0.0)
      spans
    /. passes
  in
  let stage_words names =
    sumf (fun (n, _, _, _, m) -> if List.mem n names then m else 0.0) spans /. passes
  in
  let wall = sumf (fun j -> j.wall) traced /. passes in
  let staged = stage_s ~top:true all_stages in
  let count key = float_of_int (List.fold_left (fun acc j -> acc + int_field key j.result) 0 traced) /. passes in
  let counter key =
    float_of_int
      (List.fold_left (fun acc j -> acc + int_field key (field "counters" j.result)) 0 traced)
    /. passes
  in
  let ratio a b = if counter b = 0.0 then 0.0 else counter a /. counter b in
  (* Tracing cost: every traced job has an untraced twin next to it. *)
  let overhead =
    100.0 *. ((sumf (fun j -> j.wall) traced /. sumf (fun j -> j.wall) untraced) -. 1.0)
  in
  let minimize = [ "logic.minimize.c1"; "logic.minimize.c2"; "logic.minimize.lambda" ] in
  let contract =
    [
      metric "fsm.parse_s" "s" (stage_s [ "fsm.parse" ]);
      metric "core.solve_s" "s" (stage_s [ "core.solve" ]);
      metric "core.realize_s" "s" (stage_s [ "core.realize" ]);
      metric "logic.minimize_s" "s" (stage_s minimize);
      metric "logic.minimize.c1_s" "s" (stage_s [ "logic.minimize.c1" ]);
      metric "logic.minimize.c2_s" "s" (stage_s [ "logic.minimize.c2" ]);
      metric "logic.minimize.lambda_s" "s" (stage_s [ "logic.minimize.lambda" ]);
      metric "flow.synth_s" "s" (stage_s ~top:true synth_stages);
      metric "flow.check_s" "s" (stage_s ~top:true check_stages);
      metric "unattributed_s" "s" (wall -. staged);
      metric "trace.overhead_pct" "%" overhead;
      metric "fsm.parse.minor_words" "words" (stage_words [ "fsm.parse" ]);
      metric "core.solve.minor_words" "words" (stage_words [ "core.solve" ]);
      metric "core.realize.minor_words" "words" (stage_words [ "core.realize" ]);
      metric "flow.synth.minor_words" "words" (stage_words synth_stages);
      metric "flow.check.minor_words" "words" (stage_words check_stages);
      metric "core.solve.investigated" "count" (count "investigated");
      metric "core.solve.pruned" "count" (count "pruned");
      metric "core.solve.deduped" "count" (count "deduped");
      metric "core.solve.memo_hits" "count" (count "memo_hits");
      metric "core.solve.basis_size" "count" (count "basis_size");
      metric "encoding.on_cubes" "count" (count "on_cubes");
      metric "encoding.dc_cubes" "count" (count "dc_cubes");
      metric "logic.cubes_in" "count" (count "cubes_in");
      metric "logic.cubes_out" "count" (count "cubes_out");
      metric "logic.expand_accept_ratio" "ratio"
        (ratio "minimize.expand_raises_accepted" "minimize.expand_raises_attempted");
      metric "logic.tautology_memo_ratio" "ratio"
        (ratio "minimize.tautology_memo_hits" "minimize.tautology_calls");
      metric "faultsim.faults_raw" "count" (counter "faultsim.faults.raw");
      metric "faultsim.fault_classes" "count" (counter "faultsim.faults.classes");
      metric "faultsim.gate_evals" "count" (counter "faultsim.gate_evals");
      metric "faultsim.dominance_skips" "count" (counter "faultsim.dominance_skips");
      metric "sat.solves" "count" (counter "sat.solves");
      metric "sat.conflicts" "count" (counter "sat.conflicts");
      metric "sat.decisions" "count" (counter "sat.decisions");
    ]
  in
  let present name = List.exists (fun (n, _, _, _, _) -> n = name) spans in
  let table =
    Printf.sprintf "traced jobs %d (%.2f passes), job wall %.6f s per pass" (List.length traced)
      passes wall
    :: List.map
         (fun name ->
           if present name then
             let s = stage_s [ name ] in
             Printf.sprintf "%-26s %12.6f s %6.2f %% of wall %14.0f minor words" (name ^ "_s") s
               (100.0 *. s /. wall) (stage_words [ name ])
           else Printf.sprintf "%-26s not run by this flow" (name ^ "_s"))
         all_stages
    @ [
        Printf.sprintf "%-26s %12.6f s %6.2f %% of wall" "logic.minimize_s" (stage_s minimize)
          (100.0 *. stage_s minimize /. wall);
        Printf.sprintf "%-26s %12.6f s %6.2f %% of wall" "unattributed_s" (wall -. staged)
          (100.0 *. (wall -. staged) /. wall);
        (match List.filter_map (fun j -> opt_int_field "iterations" j.result) traced with
         | [] -> "logic.iterations           n/a (minimized inside Context.of_realization)"
         | its -> Printf.sprintf "logic.iterations           %.1f count" (float_of_int (List.fold_left ( + ) 0 its) /. passes));
      ]
  in
  (contract, table)

(* Spans of every job on one timeline, as Chrome trace events: one track
   per job, the parent span and job id in [args]. *)
let write_trace name jobs =
  let events =
    List.concat_map
      (fun j ->
        let id = int_field "job" j.result in
        List.map
          (fun (name, parent, t0, t1, minor) ->
            Json.Obj
              [
                ("name", Json.String name); ("ph", Json.String "X");
                ("ts", Json.Float (float_of_int t0 /. 1e3));
                ("dur", Json.Float (float_of_int (t1 - t0) /. 1e3));
                ("pid", Json.Int 1); ("tid", Json.Int id);
                ( "args",
                  Json.Obj
                    [
                      ("parent", Json.String parent); ("job", Json.Int id);
                      ("machine", Json.String j.machine); ("traced", Json.Bool j.traced);
                      ("minor_words", Json.Float minor);
                    ] );
              ])
          (spans_of j))
      jobs
  in
  write_out name (Json.Obj [ ("traceEvents", Json.List events) ])

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let run_workload w ~seed ~seconds ~traced =
  (* Set-up is repeated and its median reported: one set-up is a few
     milliseconds and shares the machine with the jobs. *)
  let setups =
    List.init 15 (fun _ ->
        let t0 = Clock.now () in
        let texts = setup w in
        (Clock.elapsed ~since:t0, texts))
  in
  let setup_s = median (List.map fst setups) in
  let texts = Array.of_list (snd (List.hd setups)) in
  let rng = Rng.create seed in
  let jobs = ref [] and next_id = ref 0 in
  let run_one ~traced k =
    let j = run_job w ~id:!next_id ~seed:(seed + !next_id) ~traced texts.(k) in
    incr next_id;
    jobs := j :: !jobs
  in
  (* Whole passes only, so that every machine counts equally.  A pass
     starts while at least half of it, judged by the last pass, fits
     into the measured time: a run overshoots by at most half a pass. *)
  let t0 = Clock.now () in
  let rec passes last =
    let elapsed = Clock.elapsed ~since:t0 in
    if !jobs = [] || elapsed +. (last /. 2.0) <= float_of_int seconds then begin
      let p0 = Clock.now () in
      Array.iter
        (fun k ->
          (* In a traced run the twins alternate which runs first, so
             that the order does not bias the tracing cost. *)
          if traced && ((!next_id / 2) + seed) mod 2 = 1 then begin
            run_one ~traced:true k;
            run_one ~traced:false k
          end
          else begin
            run_one ~traced:false k;
            if traced then run_one ~traced:true k
          end)
        (Rng.permutation rng (Array.length texts));
      passes (Clock.elapsed ~since:p0)
    end
  in
  passes 0.0;
  let jobs = List.rev !jobs in
  let graded, cli_errors = cli_match w (Array.to_list texts) jobs in
  let _, repeat_errors = per_machine w jobs in
  let failures =
    List.filter_map
      (fun j -> if j.ok then None else Some (Printf.sprintf "%s: %s" j.machine j.failure))
      jobs
  in
  List.iter (fun e -> Printf.printf "error: %s\n" e) (failures @ cli_errors @ repeat_errors);
  let n = List.length jobs in
  let failed = List.length failures in
  let correct = failed = 0 && cli_errors = [] && repeat_errors = [] in
  let metrics =
    if traced then begin
      let contract, table = per_layer w jobs in
      let path = write_trace (Printf.sprintf "trace-%s-seed%d.json" w.name seed) jobs in
      Printf.printf "== %s per-layer ledger (spans in %s)\n" w.name path;
      List.iter print_endline table;
      contract
    end
    else begin
      let e2e = end_to_end ~setup_s ~graded w jobs in
      Printf.printf "== %s end-to-end\n" w.name;
      List.iter (fun m -> Printf.printf "%-16s %.6f %s\n" m.mname m.value m.unit_) e2e;
      List.iter print_endline (end_to_end_extra w jobs);
      e2e
    end
  in
  let result =
    Json.Obj
      [
        ("correct", Json.Bool correct);
        ("attempted", Json.Int n);
        ("failed", Json.Int failed);
        ( "metrics",
          Json.Obj
            (List.map
               (fun m ->
                 (m.mname, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.String m.unit_) ]))
               metrics) );
      ]
  in
  print_endline (Json.to_string result)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let mode = ref "run" and workload = ref "" and seed = ref 1 and seconds = ref 30 in
  let trace = ref 0 and flow = ref "selftest" and cycles = ref 1024 and name = ref "" in
  let job = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "W corpus | tbk-bist | verify");
      ("--seed", Arg.Set_int seed, "N job order and co-simulation seed");
      ("--seconds", Arg.Set_int seconds, "S measured time of the run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run or traced per-layer run");
      ("--flow", Arg.Set_string flow, "selftest|signoff (job mode)");
      ("--cycles", Arg.Set_int cycles, "N cycles per session (job mode)");
      ("--name", Arg.Set_string name, "NAME machine name (job mode)");
      ("--job", Arg.Set_int job, "ID job id (job mode)");
    ]
  in
  Arg.parse spec (fun m -> mode := m) "stcbench.exe [job|probe] [options]";
  match !mode with
  | "probe" -> print_endline "ready"
  | "job" ->
    let flow = if !flow = "signoff" then Job.Signoff else Job.Selftest { cycles = !cycles } in
    Job.run ~flow ~name:!name ~job:!job ~seed:!seed ~traced:(!trace = 1)
  | _ -> (
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | None ->
      prerr_endline ("unknown workload " ^ !workload);
      exit 2
    | Some w -> run_workload w ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1))

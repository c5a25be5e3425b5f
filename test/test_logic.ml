module Cube = Stc_logic.Cube
module Cover = Stc_logic.Cover
module Minimize = Stc_logic.Minimize
module Naive = Stc_logic.Naive
module Pla = Stc_logic.Pla
module Truth = Stc_oracle.Truth
module Rng = Stc_util.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let qcheck = QCheck_alcotest.to_alcotest

(* Random cube / cover generators driven by a seed. *)
let random_cube rng ~num_vars ~num_outputs =
  let input =
    Array.init num_vars (fun _ ->
        match Rng.int rng 3 with 0 -> Cube.Zero | 1 -> Cube.One | _ -> Cube.Dc)
  in
  let output = Array.init num_outputs (fun _ -> Rng.bool rng) in
  if Array.exists Fun.id output then Cube.make ~input ~output
  else begin
    output.(Rng.int rng num_outputs) <- true;
    Cube.make ~input ~output
  end

let random_cover rng ~num_vars ~num_outputs ~max_cubes =
  let n = 1 + Rng.int rng max_cubes in
  Cover.make ~num_vars ~num_outputs
    (List.init n (fun _ -> random_cube rng ~num_vars ~num_outputs))

let dims rng =
  let num_vars = 2 + Rng.int rng 4 in
  let num_outputs = 1 + Rng.int rng 3 in
  (num_vars, num_outputs)

(* ------------------------------------------------------------------ *)
(* Cube                                                                *)
(* ------------------------------------------------------------------ *)

let test_cube_string_roundtrip () =
  let c = Cube.of_string "1-0 10" in
  check_string "roundtrip" "1-0 10" (Cube.to_string c);
  check_int "literals" 2 (Cube.literals c);
  check_bool "matches 100" true (Cube.matches c 0b100);
  check_bool "matches 110" true (Cube.matches c 0b110);
  check_bool "rejects 101" false (Cube.matches c 0b101)

let test_cube_of_string_rejects () =
  check_bool "bad char" true
    (match Cube.of_string "1x0 1" with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check_bool "empty output" true
    (match Cube.of_string "111 00" with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_cube_minterm () =
  let c = Cube.minterm ~num_vars:3 ~num_outputs:1 0b101 in
  check_string "string" "101 1" (Cube.to_string c);
  check_bool "only itself" true
    (List.for_all
       (fun v -> Cube.matches c v = (v = 0b101))
       (List.init 8 (fun v -> v)))

let test_cube_input_size () =
  check_bool "2 dc -> 4 minterms" true
    (Cube.input_size (Cube.of_string "1-- 1") = 4.0)

let test_cube_contains_semantic =
  QCheck.Test.make ~count:300 ~name:"contains = minterm subset + output subset"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.create seed in
      let num_vars, num_outputs = dims rng in
      let a = random_cube rng ~num_vars ~num_outputs
      and b = random_cube rng ~num_vars ~num_outputs in
      let input_subset = ref true in
      for v = 0 to (1 lsl num_vars) - 1 do
        if Cube.matches b v && not (Cube.matches a v) then input_subset := false
      done;
      let output_subset = ref true in
      for o = 0 to num_outputs - 1 do
        if Cube.output_bit b o && not (Cube.output_bit a o) then
          output_subset := false
      done;
      Cube.contains a b = (!input_subset && !output_subset))

let test_cube_intersect_semantic =
  QCheck.Test.make ~count:300 ~name:"intersect matches minterm intersection"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.create seed in
      let num_vars, num_outputs = dims rng in
      let a = random_cube rng ~num_vars ~num_outputs
      and b = random_cube rng ~num_vars ~num_outputs in
      let both v = Cube.matches a v && Cube.matches b v in
      let out_overlap = Cube.output_overlap a b in
      match Cube.intersect a b with
      | None ->
        (* empty: either inputs disjoint or outputs disjoint *)
        List.for_all (fun v -> not (both v)) (List.init (1 lsl num_vars) Fun.id)
        || not out_overlap
      | Some c ->
        List.for_all
          (fun v -> Cube.matches c v = both v)
          (List.init (1 lsl num_vars) Fun.id))

let test_cube_supercube_is_bound =
  QCheck.Test.make ~count:300 ~name:"supercube contains both arguments"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.create seed in
      let num_vars, num_outputs = dims rng in
      let a = random_cube rng ~num_vars ~num_outputs
      and b = random_cube rng ~num_vars ~num_outputs in
      let s = Cube.supercube a b in
      Cube.contains s a && Cube.contains s b)

let test_cube_distance () =
  check_int "distance" 3 (Cube.distance (Cube.of_string "110 1") (Cube.of_string "001 1"));
  check_int "zero when overlapping" 0
    (Cube.distance (Cube.of_string "1-- 1") (Cube.of_string "-01 1"))

(* ------------------------------------------------------------------ *)
(* Cover                                                               *)
(* ------------------------------------------------------------------ *)

let test_cover_eval () =
  let c = Cover.of_strings ~num_vars:2 ~num_outputs:2 [ "1- 10"; "-1 01" ] in
  check_bool "11 -> both" true (Cover.eval c 0b11 = [| true; true |]);
  check_bool "10 -> first" true (Cover.eval c 0b10 = [| true; false |]);
  check_bool "00 -> none" true (Cover.eval c 0b00 = [| false; false |])

let test_cover_tautology_examples () =
  let taut = Cover.of_strings ~num_vars:2 ~num_outputs:1 [ "1- 1"; "0- 1" ] in
  check_bool "x + x' tautology" true (Cover.tautology taut);
  let no = Cover.of_strings ~num_vars:2 ~num_outputs:1 [ "1- 1"; "01 1" ] in
  check_bool "not tautology" false (Cover.tautology no);
  let dc = Cover.of_strings ~num_vars:2 ~num_outputs:1 [ "-- 1" ] in
  check_bool "universal cube" true (Cover.tautology dc)

let test_cover_tautology_oracle =
  QCheck.Test.make ~count:300 ~name:"tautology agrees with truth table"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.create seed in
      let num_vars, num_outputs = dims rng in
      let c = random_cover rng ~num_vars ~num_outputs ~max_cubes:8 in
      let table = Truth.table c in
      let full = Array.for_all (fun row -> Array.for_all Fun.id row) table in
      Cover.tautology c = full)

let test_cover_complement_oracle =
  QCheck.Test.make ~count:200 ~name:"complement flips every minterm"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.create seed in
      let num_vars, num_outputs = dims rng in
      let c = random_cover rng ~num_vars ~num_outputs ~max_cubes:8 in
      let comp = Cover.complement c in
      let ok = ref true in
      for v = 0 to (1 lsl num_vars) - 1 do
        let a = Cover.eval c v and b = Cover.eval comp v in
        Array.iteri (fun o av -> if av = b.(o) then ok := false) a
      done;
      !ok)

let test_cover_covers_cube_oracle =
  QCheck.Test.make ~count:300 ~name:"covers_cube agrees with truth table"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.create seed in
      let num_vars, num_outputs = dims rng in
      let c = random_cover rng ~num_vars ~num_outputs ~max_cubes:6 in
      let cube = random_cube rng ~num_vars ~num_outputs in
      let semantic = ref true in
      for v = 0 to (1 lsl num_vars) - 1 do
        if Cube.matches cube v then begin
          let row = Cover.eval c v in
          for o = 0 to num_outputs - 1 do
            if Cube.output_bit cube o && not row.(o) then semantic := false
          done
        end
      done;
      Cover.covers_cube c cube = !semantic)

let test_cover_sharp_cube_oracle =
  QCheck.Test.make ~count:200 ~name:"sharp_cube = cube minus cover"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.create seed in
      let num_vars, num_outputs = dims rng in
      let c = random_cover rng ~num_vars ~num_outputs ~max_cubes:6 in
      let cube = random_cube rng ~num_vars ~num_outputs in
      let diff = Cover.sharp_cube cube c in
      let ok = ref true in
      for v = 0 to (1 lsl num_vars) - 1 do
        let in_diff = Cover.eval diff v and in_c = Cover.eval c v in
        for o = 0 to num_outputs - 1 do
          let expected =
            Cube.output_bit cube o && Cube.matches cube v && not in_c.(o)
          in
          if in_diff.(o) <> expected then ok := false
        done
      done;
      !ok)

let test_cover_scc_preserves =
  QCheck.Test.make ~count:200 ~name:"single-cube containment preserves function"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.create seed in
      let num_vars, num_outputs = dims rng in
      let c = random_cover rng ~num_vars ~num_outputs ~max_cubes:10 in
      Truth.equivalent c (Cover.single_cube_containment c))

let test_cover_minterms_equals_eval =
  QCheck.Test.make ~count:100 ~name:"minterm expansion preserves function"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.create seed in
      let num_vars, num_outputs = dims rng in
      let c = random_cover rng ~num_vars ~num_outputs ~max_cubes:6 in
      Truth.equivalent c (Cover.minterms c))

let test_cover_equivalent_mutual =
  QCheck.Test.make ~count:150 ~name:"equivalent agrees with truth tables"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.create seed in
      let num_vars, num_outputs = dims rng in
      let a = random_cover rng ~num_vars ~num_outputs ~max_cubes:5 in
      let b = random_cover rng ~num_vars ~num_outputs ~max_cubes:5 in
      Cover.equivalent a b = Truth.equivalent a b)

(* ------------------------------------------------------------------ *)
(* Minimize                                                            *)
(* ------------------------------------------------------------------ *)

let test_minimize_xor_stays_two_cubes () =
  (* XOR has no two-level minimization: 2 cubes, 4 literals. *)
  let on = Cover.of_strings ~num_vars:2 ~num_outputs:1 [ "10 1"; "01 1" ] in
  let result, _ = Minimize.minimize on in
  check_int "2 cubes" 2 (Cover.size result);
  check_bool "exact" true (Truth.equivalent on result)

let test_minimize_merges_adjacent () =
  (* ab + ab' = a. *)
  let on = Cover.of_strings ~num_vars:2 ~num_outputs:1 [ "11 1"; "10 1" ] in
  let result, report = Minimize.minimize on in
  check_int "1 cube" 1 (Cover.size result);
  check_int "1 literal" 2 report.Minimize.final_literals
  (* input literal + output literal *)

let test_minimize_uses_dont_cares () =
  (* f = m(1); dc = m(3): minimizer should produce the single cube -1. *)
  let on = Cover.of_strings ~num_vars:2 ~num_outputs:1 [ "01 1" ] in
  let dc = Cover.of_strings ~num_vars:2 ~num_outputs:1 [ "11 1" ] in
  let result, _ = Minimize.minimize ~dc on in
  check_int "1 cube" 1 (Cover.size result);
  check_bool "contract" true (Truth.equivalent_with_dc ~on ~dc result)

let test_minimize_contract =
  QCheck.Test.make ~count:150 ~name:"minimize satisfies on <= f <= on+dc"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.create seed in
      let num_vars, num_outputs = dims rng in
      let on = random_cover rng ~num_vars ~num_outputs ~max_cubes:8 in
      let dc = random_cover rng ~num_vars ~num_outputs ~max_cubes:4 in
      let result, _ = Minimize.minimize ~dc on in
      Truth.equivalent_with_dc ~on ~dc result
      && Minimize.verify ~on ~dc result
      && Minimize.is_irredundant ~dc result)

let test_minimize_never_worse =
  (* Cube count never increases (expand keeps it, containment/irredundant
     only remove).  Literal counts can trade input literals for output
     literals, so only the cube bound is guaranteed. *)
  QCheck.Test.make ~count:150 ~name:"minimize never increases the cube count"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.create seed in
      let num_vars, num_outputs = dims rng in
      let on = random_cover rng ~num_vars ~num_outputs ~max_cubes:10 in
      let result, report = Minimize.minimize on in
      let cubes, lits = Cover.cost result in
      cubes <= report.Minimize.initial_cubes
      && report.Minimize.final_cubes = cubes
      && report.Minimize.final_literals = lits)

let test_expand_yields_primes =
  QCheck.Test.make ~count:100 ~name:"expanded cubes cannot be raised further"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.create seed in
      let num_vars, num_outputs = dims rng in
      let on = random_cover rng ~num_vars ~num_outputs ~max_cubes:6 in
      let off = Minimize.off_set on in
      let expanded = Minimize.expand ~off on in
      Array.for_all
        (fun cube ->
          (* every remaining literal conflicts with the off-set if raised *)
          let prime = ref true in
          for k = 0 to num_vars - 1 do
            if Cube.get cube k <> Cube.Dc then begin
              let input = Cube.input cube in
              input.(k) <- Cube.Dc;
              let raised = Cube.make ~input ~output:(Cube.output cube) in
              let hits_off =
                Array.exists
                  (fun r -> Cube.intersect raised r <> None)
                  off.Cover.cubes
              in
              if not hits_off then prime := false
            end
          done;
          !prime)
        expanded.Cover.cubes)

let test_reduce_keeps_function =
  QCheck.Test.make ~count:100 ~name:"reduce preserves the function"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.create seed in
      let num_vars, num_outputs = dims rng in
      let on = random_cover rng ~num_vars ~num_outputs ~max_cubes:8 in
      Truth.equivalent on (Minimize.reduce on))

(* ------------------------------------------------------------------ *)
(* Packed engine vs. the retained trit-array reference (Naive)         *)
(* ------------------------------------------------------------------ *)

let same_cover a b =
  Cover.size a = Cover.size b
  && Array.for_all2 Cube.equal a.Cover.cubes b.Cover.cubes

let test_packed_cube_ops_vs_naive =
  QCheck.Test.make ~count:300 ~name:"packed contains/intersect = naive"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.create seed in
      let num_vars, num_outputs = dims rng in
      let a = random_cube rng ~num_vars ~num_outputs
      and b = random_cube rng ~num_vars ~num_outputs in
      Cube.contains a b = Naive.contains a b
      && (match (Cube.intersect a b, Naive.intersect a b) with
         | None, None -> true
         | Some x, Some y -> Cube.equal x y
         | _ -> false))

let test_packed_cover_ops_vs_naive =
  QCheck.Test.make ~count:200
    ~name:"packed tautology/covers_cube/complement = naive"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.create seed in
      let num_vars, num_outputs = dims rng in
      let c = random_cover rng ~num_vars ~num_outputs ~max_cubes:8 in
      let cube = random_cube rng ~num_vars ~num_outputs in
      Cover.tautology c = Naive.tautology c
      && Cover.covers_cube c cube = Naive.covers_cube c cube
      && Truth.equivalent (Cover.complement c) (Naive.complement c))

let test_minimize_vs_reference =
  QCheck.Test.make ~count:80 ~name:"minimize matches the reference contract"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.create seed in
      let num_vars, num_outputs = dims rng in
      let on = random_cover rng ~num_vars ~num_outputs ~max_cubes:8 in
      let dc = random_cover rng ~num_vars ~num_outputs ~max_cubes:4 in
      let packed, _ = Minimize.minimize ~dc on in
      let reference, _ = Stc_oracle.Minimize.reference ~dc on in
      Minimize.verify ~on ~dc packed
      && Minimize.verify ~on ~dc reference
      && Truth.equivalent_with_dc ~on ~dc packed
      && Truth.equivalent_with_dc ~on ~dc reference)

let test_minimize_jobs_deterministic =
  QCheck.Test.make ~count:60 ~name:"minimize jobs:1 = jobs:2, cube for cube"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.create seed in
      let num_vars, num_outputs = dims rng in
      let on = random_cover rng ~num_vars ~num_outputs ~max_cubes:8 in
      let dc = random_cover rng ~num_vars ~num_outputs ~max_cubes:4 in
      let r1, _ = Minimize.minimize ~jobs:1 ~dc on in
      let r2, _ = Minimize.minimize ~jobs:2 ~dc on in
      same_cover r1 r2)

let test_of_string_edge_chars () =
  (* espresso PLA alternates: '2' is a don't-care input, '4' asserts an
     output, '~' clears one. *)
  let c = Cube.of_string "2-01 4~0-" in
  check_string "normalized" "--01 1000" (Cube.to_string c);
  let c2 = Cube.of_string "--01 1000" in
  check_bool "roundtrip equal" true (Cube.equal c c2)

let test_scc_prefers_general_and_is_canonical () =
  let of_rows rows = Cover.of_strings ~num_vars:2 ~num_outputs:1 rows in
  (* The general cube must survive no matter where it sits. *)
  let a = Cover.single_cube_containment (of_rows [ "11 1"; "1- 1" ]) in
  let b = Cover.single_cube_containment (of_rows [ "1- 1"; "11 1" ]) in
  check_int "one cube (a)" 1 (Cover.size a);
  check_int "one cube (b)" 1 (Cover.size b);
  check_string "keeps the more general cube" "1- 1"
    (Cube.to_string a.Cover.cubes.(0));
  check_bool "order-independent" true (same_cover a b);
  (* Equal duplicates collapse to a single copy. *)
  let c = Cover.single_cube_containment (of_rows [ "01 1"; "01 1" ]) in
  check_int "dedup" 1 (Cover.size c)

let test_scc_canonical_random =
  QCheck.Test.make ~count:200 ~name:"scc result is independent of cube order"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.create seed in
      let num_vars, num_outputs = dims rng in
      let c = random_cover rng ~num_vars ~num_outputs ~max_cubes:10 in
      let reversed =
        Cover.of_array ~num_vars ~num_outputs
          (let a = Array.copy c.Cover.cubes in
           let n = Array.length a in
           Array.init n (fun i -> a.(n - 1 - i)))
      in
      same_cover
        (Cover.single_cube_containment c)
        (Cover.single_cube_containment reversed))

(* ------------------------------------------------------------------ *)
(* EXPAND / IRREDUNDANT / REDUCE vs. their first formulations          *)
(* ------------------------------------------------------------------ *)

(* EXPAND of one cube as first formulated: explicit conflict-column
   lists per output-overlapping off-cube, columns tried in ascending
   blocker count (then index), a column blocked while it is the last
   conflict of some list; then every output whose off-cubes all miss the
   raised input part. *)
let ref_expand_cube ~(off : Cover.t) cube =
  let nv = Cube.num_vars cube in
  let input = Cube.input cube in
  let conflict r k =
    match (input.(k), Cube.get r k) with
    | Cube.Zero, Cube.One | Cube.One, Cube.Zero -> true
    | _ -> false
  in
  let sets =
    Array.of_list
      (List.filter_map
         (fun r ->
           if Cube.output_overlap r cube then
             Some (List.filter (conflict r) (List.init nv Fun.id))
           else None)
         (Array.to_list off.Cover.cubes))
  in
  if Array.mem [] sets then cube
  else begin
    let count k = Array.fold_left (fun n s -> if List.mem k s then n + 1 else n) 0 sets in
    let order =
      List.stable_sort
        (fun a b -> Int.compare (count a) (count b))
        (List.filter (fun k -> input.(k) <> Cube.Dc) (List.init nv Fun.id))
    in
    List.iter
      (fun k ->
        if not (Array.mem [ k ] sets) then begin
          input.(k) <- Cube.Dc;
          Array.iteri (fun i s -> sets.(i) <- List.filter (( <> ) k) s) sets
        end)
      order;
    let raised = Cube.make ~input ~output:(Cube.output cube) in
    let output =
      Array.mapi
        (fun o b ->
          b
          || not
               (Array.exists
                  (fun r -> Cube.output_bit r o && not (Cube.disjoint raised r))
                  off.Cover.cubes))
        (Cube.output cube)
    in
    Cube.make ~input ~output
  end

let ref_expand ~off (cover : Cover.t) =
  Cover.single_cube_containment
    (Cover.of_array ~num_vars:cover.Cover.num_vars
       ~num_outputs:cover.Cover.num_outputs
       (Array.map (ref_expand_cube ~off) cover.Cover.cubes))

(* The explicit context cover of cube [i]: every other live cube of
   [cubes], then [dc]. *)
let context ?dc (cover : Cover.t) cubes alive i =
  let rest =
    List.filteri (fun j _ -> j <> i && alive.(j)) (Array.to_list cubes)
  in
  let c =
    Cover.make ~num_vars:cover.Cover.num_vars
      ~num_outputs:cover.Cover.num_outputs rest
  in
  match dc with None -> c | Some d -> Cover.union c d

let live (cover : Cover.t) cubes alive =
  Cover.make ~num_vars:cover.Cover.num_vars ~num_outputs:cover.Cover.num_outputs
    (List.filteri (fun i _ -> alive.(i)) (Array.to_list cubes))

let ref_irredundant ?dc (cover : Cover.t) =
  let cubes = cover.Cover.cubes in
  let n = Array.length cubes in
  if n <= 1 then cover
  else begin
    let all = Array.make n true in
    let partial =
      List.filter
        (fun i -> Cover.covers_cube (context ?dc cover cubes all i) cubes.(i))
        (List.init n Fun.id)
    in
    let order =
      List.stable_sort
        (fun a b ->
          let la = Cube.literals cubes.(a) and lb = Cube.literals cubes.(b) in
          if la <> lb then Int.compare lb la else Cube.compare cubes.(a) cubes.(b))
        partial
    in
    let alive = Array.make n true in
    List.iter
      (fun i ->
        if Cover.covers_cube (context ?dc cover cubes alive i) cubes.(i) then
          alive.(i) <- false)
      order;
    live cover cubes alive
  end

let ref_reduce ?dc (cover : Cover.t) =
  let cubes = Array.copy cover.Cover.cubes in
  let n = Array.length cubes in
  let alive = Array.make n true in
  for i = 0 to n - 1 do
    match
      Array.to_list
        (Cover.sharp_cube cubes.(i) (context ?dc cover cubes alive i)).Cover.cubes
    with
    | [] -> alive.(i) <- false
    | first :: more ->
      let shrunk = List.fold_left Cube.supercube first more in
      if Cube.contains cubes.(i) shrunk then cubes.(i) <- shrunk
  done;
  live cover cubes alive

(* Cubes over up to 64 variables (two packed words) with few
   don't-cares, against a random off-set of up to 40 cubes: many
   conflict columns per off-cube, more off-cubes than one SWAR count
   field holds, and the last column of a word in play. *)
let wide_cube rng ~num_vars ~num_outputs =
  let input =
    Array.init num_vars (fun _ ->
        match Rng.int rng 8 with
        | 0 | 1 -> Cube.Dc
        | 2 | 3 | 4 -> Cube.Zero
        | _ -> Cube.One)
  in
  let output = Array.init num_outputs (fun _ -> Rng.int rng 3 = 0) in
  output.(Rng.int rng num_outputs) <- true;
  Cube.make ~input ~output

let wide_case rng =
  let num_vars = 1 + Rng.int rng 64 and num_outputs = 1 + Rng.int rng 3 in
  let cover n =
    Cover.make ~num_vars ~num_outputs
      (List.init n (fun _ -> wide_cube rng ~num_vars ~num_outputs))
  in
  let on = cover (1 + Rng.int rng 6) in
  (on, cover (Rng.int rng 41))

(* A random on/dc pair and the off-set minimize would use. *)
let natural_case rng =
  let num_vars, num_outputs = dims rng in
  let on = random_cover rng ~num_vars ~num_outputs ~max_cubes:8 in
  let dc = random_cover rng ~num_vars ~num_outputs ~max_cubes:4 in
  let dc = if Rng.bool rng then Some dc else None in
  (on, dc, Minimize.off_set ?dc on)

let test_expand_vs_reference =
  QCheck.Test.make ~count:200 ~name:"expand = first formulation, jobs 1 and 2"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.create seed in
      let on, off =
        if seed mod 2 = 0 then wide_case rng
        else
          let on, _, off = natural_case rng in
          (on, off)
      in
      let expected = ref_expand ~off on in
      same_cover (Minimize.expand ~jobs:1 ~off on) expected
      && same_cover (Minimize.expand ~jobs:2 ~off on) expected)

let test_expand_idempotent =
  QCheck.Test.make ~count:200 ~name:"expand of an expansion is itself"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.create seed in
      let on, off =
        if seed mod 2 = 0 then wide_case rng
        else
          let on, _, off = natural_case rng in
          (on, off)
      in
      let once = Minimize.expand ~off on in
      same_cover (Minimize.expand ~off once) once)

let test_irredundant_vs_reference =
  QCheck.Test.make ~count:200
    ~name:"irredundant = explicit context covers, jobs 1 and 2"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.create seed in
      let on, dc, off = natural_case rng in
      List.for_all
        (fun cover ->
          let expected = ref_irredundant ?dc cover in
          same_cover (Minimize.irredundant ~jobs:1 ?dc cover) expected
          && same_cover (Minimize.irredundant ~jobs:2 ?dc cover) expected)
        [ on; Minimize.expand ~off on ])

let test_reduce_vs_reference =
  QCheck.Test.make ~count:200 ~name:"reduce = explicit context covers"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.create seed in
      let on, dc, off = natural_case rng in
      List.for_all
        (fun cover -> same_cover (Minimize.reduce ?dc cover) (ref_reduce ?dc cover))
        [ on; Minimize.irredundant ?dc (Minimize.expand ~off on) ])

(* [minimize]'s loop spelled out with the public passes, which keep no
   memo between calls. *)
let loop_minimize ?dc on =
  let off = Minimize.off_set ?dc on in
  let step c = Minimize.irredundant ?dc (Minimize.expand ~off c) in
  let first = step (Cover.single_cube_containment on) in
  let rec go best best_cost current iterations =
    if iterations >= 10 then best
    else
      let cleaned = step (Minimize.reduce ?dc current) in
      let cost = Cover.cost cleaned in
      if cost < best_cost then go cleaned cost cleaned (iterations + 1) else best
  in
  go first (Cover.cost first) first 1

let test_minimize_memo_invisible =
  QCheck.Test.make ~count:150 ~name:"minimize = its loop without the prime memo"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.create seed in
      let on, dc, _ = natural_case rng in
      let expected = loop_minimize ?dc on in
      same_cover (fst (Minimize.minimize ~jobs:1 ?dc on)) expected
      && same_cover (fst (Minimize.minimize ~jobs:2 ?dc on)) expected)

let test_among_filters_rows () =
  let c = Cover.of_strings ~num_vars:2 ~num_outputs:1 [ "1- 1"; "0- 1"; "-1 1" ] in
  let dc = Cover.of_strings ~num_vars:2 ~num_outputs:1 [ "00 1" ] in
  let cube = Cube.of_string "-- 1" in
  check_bool "all rows" true (Cover.covers_cube_among ~keep:(fun _ -> true) c cube);
  check_bool "without row 1" false
    (Cover.covers_cube_among ~keep:(fun j -> j <> 1) c cube);
  let left = Cube.of_string "0- 1" in
  check_bool "00 uncovered" false
    (Cover.covers_cube_among ~keep:(fun j -> j <> 1) c left);
  check_bool "dc covers 00" true
    (Cover.covers_cube_among ~dc ~keep:(fun j -> j <> 1) c left);
  check_string "sharp against row 2 only" "00 1"
    (String.trim (Cover.to_string (Cover.sharp_cube_among ~keep:(fun j -> j = 2) left c)))

(* ------------------------------------------------------------------ *)
(* Pla                                                                 *)
(* ------------------------------------------------------------------ *)

let test_pla_roundtrip () =
  let on = Cover.of_strings ~num_vars:3 ~num_outputs:2 [ "1-0 10"; "011 01" ] in
  let dc = Cover.of_strings ~num_vars:3 ~num_outputs:2 [ "111 11" ] in
  let text = Pla.print ~name:"t" ~dc on in
  let file = Pla.parse text in
  check_bool "on preserved" true (Truth.equivalent on file.Pla.on);
  check_bool "dc preserved" true (Truth.equivalent dc file.Pla.dc);
  check_bool "name" true (file.Pla.name = Some "t")

let test_pla_type_f () =
  let on = Cover.of_strings ~num_vars:2 ~num_outputs:1 [ "11 1" ] in
  let text = Pla.print on in
  check_bool "type f emitted" true
    (String.split_on_char '\n' text |> List.exists (fun l -> l = ".type f"));
  let file = Pla.parse text in
  check_int "empty dc" 0 (Cover.size file.Pla.dc)

let test_pla_parse_errors () =
  let bad text =
    match Pla.parse text with exception Pla.Parse_error _ -> true | _ -> false
  in
  check_bool "missing .i" true (bad ".o 1\n11 1\n");
  check_bool "width mismatch" true (bad ".i 2\n.o 1\n111 1\n.e\n");
  check_bool "bad type" true (bad ".i 1\n.o 1\n.type fr\n1 1\n.e\n")

let test_pla_dash_outputs_are_dc () =
  let file = Pla.parse ".i 2\n.o 2\n11 1-\n00 01\n.e\n" in
  check_int "one on-cube has output 0" 1
    (Array.fold_left
       (fun acc c -> if Cube.output_bit c 0 then acc + 1 else acc)
       0 file.Pla.on.Cover.cubes);
  check_int "dc set has one cube" 1 (Cover.size file.Pla.dc)

let () =
  Alcotest.run "stc_logic"
    [
      ( "cube",
        [
          Alcotest.test_case "string roundtrip" `Quick test_cube_string_roundtrip;
          Alcotest.test_case "of_string rejects" `Quick test_cube_of_string_rejects;
          Alcotest.test_case "minterm" `Quick test_cube_minterm;
          Alcotest.test_case "input size" `Quick test_cube_input_size;
          qcheck test_cube_contains_semantic;
          qcheck test_cube_intersect_semantic;
          qcheck test_cube_supercube_is_bound;
          Alcotest.test_case "distance" `Quick test_cube_distance;
        ] );
      ( "cover",
        [
          Alcotest.test_case "eval" `Quick test_cover_eval;
          Alcotest.test_case "tautology examples" `Quick test_cover_tautology_examples;
          qcheck test_cover_tautology_oracle;
          qcheck test_cover_complement_oracle;
          qcheck test_cover_covers_cube_oracle;
          qcheck test_cover_sharp_cube_oracle;
          qcheck test_cover_scc_preserves;
          qcheck test_cover_minterms_equals_eval;
          qcheck test_cover_equivalent_mutual;
        ] );
      ( "minimize",
        [
          Alcotest.test_case "xor stays two cubes" `Quick test_minimize_xor_stays_two_cubes;
          Alcotest.test_case "merges adjacent" `Quick test_minimize_merges_adjacent;
          Alcotest.test_case "uses don't cares" `Quick test_minimize_uses_dont_cares;
          qcheck test_minimize_contract;
          qcheck test_minimize_never_worse;
          qcheck test_expand_yields_primes;
          qcheck test_reduce_keeps_function;
        ] );
      ( "packed vs reference",
        [
          qcheck test_packed_cube_ops_vs_naive;
          qcheck test_packed_cover_ops_vs_naive;
          qcheck test_minimize_vs_reference;
          qcheck test_minimize_jobs_deterministic;
          Alcotest.test_case "of_string edge chars" `Quick
            test_of_string_edge_chars;
          Alcotest.test_case "scc canonicality" `Quick
            test_scc_prefers_general_and_is_canonical;
          qcheck test_scc_canonical_random;
        ] );
      ( "first formulations",
        [
          qcheck test_expand_vs_reference;
          qcheck test_expand_idempotent;
          qcheck test_irredundant_vs_reference;
          qcheck test_reduce_vs_reference;
          qcheck test_minimize_memo_invisible;
          Alcotest.test_case "among filters rows" `Quick test_among_filters_rows;
        ] );
      ( "pla",
        [
          Alcotest.test_case "roundtrip" `Quick test_pla_roundtrip;
          Alcotest.test_case "type f" `Quick test_pla_type_f;
          Alcotest.test_case "parse errors" `Quick test_pla_parse_errors;
          Alcotest.test_case "dash outputs are dc" `Quick test_pla_dash_outputs_are_dc;
        ] );
    ]

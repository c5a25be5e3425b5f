type report = {
  initial_cubes : int;
  initial_literals : int;
  final_cubes : int;
  final_literals : int;
  iterations : int;
}

module R = Cube.Raw

let m_calls = Stc_obs.Metrics.counter "logic.minimize_calls"

let m_raise_att = Stc_obs.Metrics.counter "minimize.expand_raises_attempted"

let m_raise_acc = Stc_obs.Metrics.counter "minimize.expand_raises_accepted"

let m_memo_hits = Stc_obs.Metrics.counter "minimize.expand_memo_hits"

let with_dc ?dc on =
  match dc with None -> on | Some d -> Cover.union on d

let off_set ?jobs ?dc on = Cover.complement ?jobs (with_dc ?dc on)

(* Per-domain scratch for the blocking matrix, reused across cubes so the
   hot loop allocates nothing proportional to the off-set.  [sets] holds
   the conflict masks row-major ([nrel] rows of [nw] words). *)
type scratch = {
  mutable sets : int array;
  mutable col_count : int array;
  mutable blocked : bool array;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      { sets = [||]; col_count = [||]; blocked = [||] })

let ensure = Stc_bits.Arena.ensure

(* A conflict word has its bits at the even positions 0..60, one per
   column.  Columns 0, 2, .., 28 are the bits at 0, 4, .., 56 and columns
   1, 3, .., 29 the same bits after a shift by 2: two words of fifteen
   4-bit counters each, which hold up to 15 rows before they must be
   flushed.  Column 30 (bit 60) is counted on its own. *)
let nibbles = 0x111111111111111

let flush_every = 15

(* [col_count] gets the blocker count of every column: the number of the
   [nrel] rows of [sets] that have its conflict bit. *)
let count_columns sets ~nrel ~nw ~nv col_count =
  Array.fill col_count 0 nv 0;
  for w = 0 to nw - 1 do
    let base = w * R.vars_per_word in
    let flush lo hi top =
      for f = 0 to 14 do
        let k = base + (2 * f) in
        if k < nv then
          col_count.(k) <- col_count.(k) + ((lo lsr (4 * f)) land 15);
        if k + 1 < nv then
          col_count.(k + 1) <- col_count.(k + 1) + ((hi lsr (4 * f)) land 15)
      done;
      if base + 30 < nv then col_count.(base + 30) <- col_count.(base + 30) + top
    in
    let lo = ref 0 and hi = ref 0 and top = ref 0 and pending = ref flush_every in
    for i = 0 to nrel - 1 do
      let e = sets.((i * nw) + w) in
      lo := !lo + (e land nibbles);
      hi := !hi + ((e lsr 2) land nibbles);
      top := !top + (e lsr 60);
      decr pending;
      if !pending = 0 then begin
        flush !lo !hi !top;
        lo := 0;
        hi := 0;
        top := 0;
        pending := flush_every
      end
    done;
    flush !lo !hi !top
  done

(* The column of the one conflict bit left in the row at [base], or -1
   when the row has none or several. *)
let single_col sets nw base =
  let col = ref (-1) and several = ref false in
  for w = 0 to nw - 1 do
    let e = sets.(base + w) in
    if e <> 0 then
      if !col >= 0 || e land (e - 1) <> 0 then several := true
      else col := (w * R.vars_per_word) + (R.popcount (e - 1) / 2)
  done;
  if !several then -1 else !col

(* The off-set as two flat word arrays, [in_words] input words and
   [out_words] output words per off-cube, so that the two scans of every
   expanded cube are plain index loops. *)
type flat = { size : int; inw : int array; outw : int array }

let flatten (off : Cover.t) =
  let nw = R.in_words off.Cover.num_vars
  and ow = R.out_words off.Cover.num_outputs in
  let size = Array.length off.Cover.cubes in
  let inw = Array.make (size * nw) 0 and outw = Array.make (size * ow) 0 in
  Array.iteri
    (fun r c ->
      Array.blit (R.input_words c) 0 inw (r * nw) nw;
      Array.blit (R.output_words c) 0 outw (r * ow) ow)
    off.Cover.cubes;
  { size; inw; outw }

(* Raise one cube against the off-set using a blocking matrix: for every
   off-cube whose output part overlaps the cube's, record the set of
   input columns on which the two conflict (one word-AND per off-cube).
   A column may be raised as long as it is not the last conflict column
   of any such set; raising it removes the column from every set, and
   any set thereby reduced to a single column permanently blocks that
   remaining column.  Columns are tried in ascending blocker count (then
   index), as in espresso; the counts come from SWAR field sums of the
   conflict words, and only an accepted raise walks the sets again.
   Output parts are raised afterwards: one disjointness scan of the
   raised input part over the off-set collects every blocked output at
   once. *)
let expand_cube (off : flat) cube =
  let nv = Cube.num_vars cube in
  let no = Cube.num_outputs cube in
  let nw = R.in_words nv in
  let ow = R.out_words no in
  let mask01 = R.mask01 in
  let cin = Array.copy (R.input_words cube) in
  let cout = Array.copy (R.output_words cube) in
  let s = Domain.DLS.get scratch_key in
  s.sets <- ensure s.sets (off.size * nw);
  s.col_count <- ensure s.col_count nv;
  s.blocked <- Stc_bits.Arena.ensure_bool s.blocked nv;
  let sets = s.sets and col_count = s.col_count and blocked = s.blocked in
  Array.fill blocked 0 nv false;
  (* Conflict-column sets of the output-overlapping off-cubes, and the
     columns blocked from the start. *)
  let nrel = ref 0 in
  let invalid = ref false in
  let r = ref 0 in
  while (not !invalid) && !r < off.size do
    let overlap = ref false in
    for w = 0 to ow - 1 do
      if off.outw.((!r * ow) + w) land cout.(w) <> 0 then overlap := true
    done;
    if !overlap then begin
      let any = ref 0 in
      let base = !nrel * nw in
      for w = 0 to nw - 1 do
        let v = cin.(w) land off.inw.((!r * nw) + w) in
        let e = lnot (v lor (v lsr 1)) land mask01 in
        sets.(base + w) <- e;
        any := !any lor e
      done;
      (* No conflict column means the cube already intersects the
         off-set (an invalid input): mirror the old engine and return it
         unraised. *)
      if !any = 0 then invalid := true
      else begin
        let k = single_col sets nw base in
        if k >= 0 then blocked.(k) <- true
      end;
      incr nrel
    end;
    incr r
  done;
  if !invalid then cube
  else begin
    let nrel = !nrel in
    count_columns sets ~nrel ~nw ~nv col_count;
    (* Fixed columns of the cube, cheapest (fewest blockers) first. *)
    let fixed = ref [] in
    for k = nv - 1 downto 0 do
      let pair = (cin.(k / R.vars_per_word) lsr (2 * (k mod R.vars_per_word))) land 3 in
      if pair <> 3 then fixed := k :: !fixed
    done;
    let order =
      List.stable_sort
        (fun a b -> Int.compare col_count.(a) col_count.(b))
        !fixed
    in
    List.iter
      (fun k ->
        Stc_obs.Metrics.incr m_raise_att;
        if not blocked.(k) then begin
          let wi = k / R.vars_per_word and p = 2 * (k mod R.vars_per_word) in
          let bit = 1 lsl p in
          cin.(wi) <- cin.(wi) lor (3 lsl p);
          Stc_obs.Metrics.incr m_raise_acc;
          for i = 0 to nrel - 1 do
            let at = (i * nw) + wi in
            let e = sets.(at) in
            if e land bit <> 0 then begin
              sets.(at) <- e land lnot bit;
              let last = single_col sets nw (i * nw) in
              if last >= 0 then blocked.(last) <- true
            end
          done
        end)
      order;
    (* Output raising: output [o] may be added iff the (now raised) input
       part is disjoint from every off-cube asserting [o].  One scan over
       the off-set accumulates every blocked output. *)
    let blocked_out = Array.make ow 0 in
    for r = 0 to off.size - 1 do
      let disjoint = ref false in
      for w = 0 to nw - 1 do
        let v = cin.(w) land off.inw.((r * nw) + w) in
        if (v lor (v lsr 1)) land mask01 <> mask01 then disjoint := true
      done;
      if not !disjoint then
        for w = 0 to ow - 1 do
          blocked_out.(w) <- blocked_out.(w) lor off.outw.((r * ow) + w)
        done
    done;
    for o = 0 to no - 1 do
      let wi = o / R.outs_per_word and p = o mod R.outs_per_word in
      if cout.(wi) land (1 lsl p) = 0 then begin
        Stc_obs.Metrics.incr m_raise_att;
        if blocked_out.(wi) land (1 lsl p) = 0 then begin
          cout.(wi) <- cout.(wi) lor (1 lsl p);
          Stc_obs.Metrics.incr m_raise_acc
        end
      end
    done;
    R.make_packed ~num_vars:nv ~num_outputs:no cin cout
  end

(* The prime memo of one [minimize] call: every cube [expand_cube] has
   returned against its off-set.  Such a cube is a fixed point of
   [expand_cube] - each fixed column of a raised cube is the last
   conflict column of some off-cube, and every output it lacks is
   blocked; an invalid cube comes back unraised - so a cube found here
   skips the off-set scan. *)
module Memo = Hashtbl.Make (struct
  type t = Cube.t

  let equal = Cube.equal

  let hash = Cube.hash
end)

let expand_with ?(jobs = 1) ?memo ~(off : flat) cover =
  Stc_obs.Trace.span ~cat:"logic" "expand" @@ fun () ->
  let cubes = cover.Cover.cubes in
  let n = Array.length cubes in
  let raise_one =
    match memo with
    | None -> fun i -> expand_cube off cubes.(i)
    | Some m ->
      (* Read-only inside the (possibly parallel) map; filled after it. *)
      fun i ->
        if Memo.mem m cubes.(i) then begin
          Stc_obs.Metrics.incr m_memo_hits;
          cubes.(i)
        end
        else expand_cube off cubes.(i)
  in
  let raised =
    if n = 0 then [||]
    else Stc_util.Parallel.map_range ~jobs n raise_one ~init:cubes.(0)
  in
  Option.iter
    (fun m -> Array.iter (fun c -> Memo.replace m c ()) raised)
    memo;
  Cover.single_cube_containment
    (Cover.of_array ~num_vars:cover.Cover.num_vars
       ~num_outputs:cover.Cover.num_outputs raised)

let expand ?jobs ~off cover =
  if off.Cover.num_vars <> cover.Cover.num_vars
     || off.Cover.num_outputs <> cover.Cover.num_outputs
  then invalid_arg "Minimize.expand: off-set dimension mismatch";
  expand_with ?jobs ~off:(flatten off) cover

(* IRREDUNDANT via the relatively-essential / partially-redundant split:
   one (parallelizable) covered-by-all-others test per cube classifies it
   as relatively essential (kept unconditionally) or partially redundant;
   only the partially-redundant cubes then go through the sequential
   greedy drop, most-specific first.  Each test runs over the whole cube
   array with an index filter instead of a cover of the other cubes. *)
let irredundant ?(jobs = 1) ?dc cover =
  Stc_obs.Trace.span ~cat:"logic" "irredundant" @@ fun () ->
  let cubes = cover.Cover.cubes in
  let n = Array.length cubes in
  if n <= 1 then cover
  else begin
    let covered =
      Stc_util.Parallel.map_range ~jobs n
        (fun i ->
          Cover.covers_cube_among ?dc ~keep:(fun j -> j <> i) cover cubes.(i))
        ~init:false
    in
    let partially_redundant = ref [] in
    for i = n - 1 downto 0 do
      if covered.(i) then partially_redundant := i :: !partially_redundant
    done;
    let order =
      List.stable_sort
        (fun a b ->
          let la = Cube.literals cubes.(a) and lb = Cube.literals cubes.(b) in
          if la <> lb then Int.compare lb la
          else Cube.compare cubes.(a) cubes.(b))
        !partially_redundant
    in
    let alive = Array.make n true in
    List.iter
      (fun i ->
        let keep j = j <> i && alive.(j) in
        if Cover.covers_cube_among ?dc ~keep cover cubes.(i) then
          alive.(i) <- false)
      order;
    let kept = ref [] in
    for i = n - 1 downto 0 do
      if alive.(i) then kept := cubes.(i) :: !kept
    done;
    Cover.make ~num_vars:cover.Cover.num_vars
      ~num_outputs:cover.Cover.num_outputs !kept
  end

(* REDUCE in place over one cube array: [current] wraps [cubes], so the
   sharp of cube [i] sees the cubes before it already shrunk. *)
let reduce ?dc cover =
  Stc_obs.Trace.span ~cat:"logic" "reduce" @@ fun () ->
  let cubes = Array.copy cover.Cover.cubes in
  let n = Array.length cubes in
  let alive = Array.make n true in
  let num_vars = cover.Cover.num_vars
  and num_outputs = cover.Cover.num_outputs in
  let current = Cover.of_array ~num_vars ~num_outputs cubes in
  for i = 0 to n - 1 do
    let keep j = j <> i && alive.(j) in
    let unique = Cover.sharp_cube_among ?dc ~keep cubes.(i) current in
    match Array.to_list unique.Cover.cubes with
    | [] -> alive.(i) <- false (* fully covered elsewhere: drop *)
    | first :: more ->
      let shrunk = List.fold_left Cube.supercube first more in
      (* Never grow: reduction stays inside the original cube. *)
      if Cube.contains cubes.(i) shrunk then cubes.(i) <- shrunk
  done;
  let kept = ref [] in
  for i = n - 1 downto 0 do
    if alive.(i) then kept := cubes.(i) :: !kept
  done;
  Cover.make ~num_vars ~num_outputs !kept

let verify ~on ?dc result =
  let care_on =
    match dc with
    | None -> on
    | Some d ->
      (* on \ dc: don't-cares take precedence where the sets overlap. *)
      Cover.of_array ~num_vars:on.Cover.num_vars
        ~num_outputs:on.Cover.num_outputs
        (Array.concat
           (Array.to_list
              (Array.map
                 (fun cube -> (Cover.sharp_cube cube d).Cover.cubes)
                 on.Cover.cubes)))
  in
  Cover.covers result care_on && Cover.covers (with_dc ?dc on) result

let is_irredundant ?dc cover =
  let cubes = cover.Cover.cubes in
  let rec from i =
    i >= Array.length cubes
    || (not (Cover.covers_cube_among ?dc ~keep:(fun j -> j <> i) cover cubes.(i))
        && from (i + 1))
  in
  from 0

let minimize ?(jobs = 1) ?dc on =
  Stc_obs.Trace.span ~cat:"logic" "minimize" @@ fun () ->
  Stc_obs.Metrics.incr m_calls;
  let initial_cubes, initial_literals = Cover.cost on in
  let off = off_set ~jobs ?dc on in
  let memo = Memo.create 1024 in
  let expand = expand_with ~jobs ~memo ~off:(flatten off) in
  let current =
    ref (irredundant ~jobs ?dc (expand (Cover.single_cube_containment on)))
  in
  let best = ref !current in
  let best_cost = ref (Cover.cost !current) in
  let iterations = ref 1 in
  let improving = ref true in
  while !improving && !iterations < 10 do
    incr iterations;
    let reduced = reduce ?dc !current in
    let expanded = expand reduced in
    let cleaned = irredundant ~jobs ?dc expanded in
    current := cleaned;
    let cost = Cover.cost cleaned in
    if cost < !best_cost then begin
      best := cleaned;
      best_cost := cost
    end
    else improving := false
  done;
  let final_cubes, final_literals = !best_cost in
  ( !best,
    { initial_cubes; initial_literals; final_cubes; final_literals;
      iterations = !iterations } )

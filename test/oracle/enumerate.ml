module Partition = Stc_partition.Partition

(* Restricted growth strings: element 0 gets class 0; element s may take any
   class in [0 .. 1 + max of previous classes]. *)

(* Streaming enumeration.  Each suspension carries its growth-string
   prefix as an immutable list, so the sequence is persistent (interior
   nodes can be re-forced or shared freely) and memory is O(n) per live
   suspension regardless of Bell(n); the ceiling only guards against
   unusable run times, not memory. *)
let partitions n =
  if n < 1 || n > 20 then invalid_arg "Enumerate.partitions: n must be in [1,20]";
  let rec go prefix s highest =
    if s = n then
      Seq.return (Partition.of_class_map (Array.of_list (List.rev prefix)))
    else
      fun () ->
        let rec branch c () =
          if c > highest + 1 then Seq.Nil
          else
            Seq.append
              (go (c :: prefix) (s + 1) (max highest c))
              (branch (c + 1))
              ()
        in
        branch 0 ()
  in
  go [ 0 ] 1 0

let all n =
  if n < 1 || n > 12 then invalid_arg "Enumerate.all: n must be in [1,12]";
  List.of_seq (partitions n)

let bell n =
  (* Bell triangle. *)
  if n < 0 then invalid_arg "Enumerate.bell";
  if n = 0 then 1
  else begin
    let row = ref [| 1 |] in
    for _ = 2 to n do
      let prev = !row in
      let len = Array.length prev in
      let next = Array.make (len + 1) 0 in
      next.(0) <- prev.(len - 1);
      for k = 1 to len do
        next.(k) <- next.(k - 1) + prev.(k - 1)
      done;
      row := next
    done;
    let r = !row in
    r.(Array.length r - 1)
  end

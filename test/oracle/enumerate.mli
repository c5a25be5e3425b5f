(** Enumeration of all partitions of a small set.  Used as a brute-force
    oracle in tests (Bell numbers grow fast: B(8) = 4140,
    B(10) = 115975, B(12) = 4213597). *)

(** [partitions n] streams every partition of [{0..n-1}] in restricted
    growth-string order, lazily: nothing is materialized, so memory stays
    O(n) no matter how large [Bell(n)] is, and consumers can stop early.
    The sequence is persistent - it can be re-iterated from the head
    (e.g. for nested loops over all pairs of partitions).  The ceiling is
    set by run time, not memory: streaming all of [n = 14]
    (B(14) = 190899322) takes minutes, [n = 12] seconds.
    @raise Invalid_argument when [n < 1] or [n > 20]. *)
val partitions : int -> Stc_partition.Partition.t Seq.t

(** [all n] lists every partition of [{0..n-1}], i.e. [Bell(n)] values,
    materialized.  Prefer {!partitions} for anything above [n = 8].
    @raise Invalid_argument when [n < 1] or [n > 12]. *)
val all : int -> Stc_partition.Partition.t list

(** [bell n] is the Bell number [B(n)] (number of partitions). *)
val bell : int -> int

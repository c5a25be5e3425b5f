(** MISR aliasing measurement.

    The session grader ({!Session}) compares observed-response streams
    directly, i.e. it assumes ideal compaction.  In the real structure the
    responses are compressed into a signature register, and a faulty
    stream can {e alias} - produce the fault-free signature (probability
    about [2^-w] for a width-[w] MISR).  This module replays each
    session's stimuli fault by fault, compresses the observed nets into an
    actual {!Stc_bist.Misr}, and counts the stream-detected faults whose
    final signatures nevertheless match - quantifying the error made by
    the ideal-compaction assumption. *)

type report = {
  total : int;  (** faults simulated *)
  stream_detected : int;  (** detected by direct stream comparison *)
  signature_detected : int;
      (** detected by comparing the final MISR signature of some session *)
  aliased : int;  (** stream-detected but signature-equal in every session *)
  aliasing_rate : float;  (** aliased / stream_detected (0 when none) *)
  misr_width : int;  (** width used (= observed nets, capped at 32) *)
}

(** [measure ?cycles built] replays the sessions of a built architecture
    (typically {!Arch.pipeline}); [cycles] truncates each session's
    stimuli (default: use them all).

    The packed golden responses are computed once per session and each
    fault replays only its output cone through the collapsed {!Engine}
    (one representative per class, verdicts weighted by class size);
    [jobs] (default 1) shards the classes over domains. *)
val measure : ?cycles:int -> ?jobs:int -> Arch.built -> report

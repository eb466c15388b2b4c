(** Performance-regression gate over the gated benchmarks.

    Every gated bench scenario ([engine], [serve], [federation], [lint])
    ends its [BENCH_*.json] with a [gates] array, one row per gated
    figure: [{"metric", "value", "better": "lower"|"higher",
    "tolerance_pct", "floor"?}].  The checked-in copy of each file is
    the baseline.  This module knows no metric by name, so adding a gate
    is a bench change. *)

type better = Lower | Higher

type row = {
  metric : string;  (** unique within a document *)
  value : float;  (** finite *)
  better : better;
  tolerance_pct : float;  (** finite, non-negative *)
  floor : float option;  (** finite; a value that always passes *)
}

val rows_to_json : row list -> Simkit.Json.t
(** The [gates] array, as the benches write it. *)

val load : string -> (row list, string) result
(** The [gates] rows of a bench document.  Never raises: non-JSON text,
    a missing or empty [gates] array, a row without [metric] or [value],
    a [better] other than [lower]/[higher], a non-finite number, a
    negative or non-numeric [tolerance_pct] or a duplicate [metric] is
    an [Error] naming the field. *)

val limit : row -> float
(** The worst current value a baseline row accepts: lower is better,
    [max floor (value * (1 + tolerance_pct/100))]; higher is better,
    [min floor (value * (1 - tolerance_pct/100))].  Without a floor a
    zero lower-is-better baseline tolerates only zero. *)

type verdict = { ok : bool; lines : string list (** one per row, then PASS/FAIL *) }

val check : baseline:row list -> current:row list -> verdict
(** Match rows by [metric], with the limit from the baseline row.  Fails
    iff a baseline row is missing from [current] or beyond its {!limit};
    a row only in [current] is reported but does not gate. *)

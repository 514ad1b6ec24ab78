(** The one JSON string escaper: traces, metrics, journals and reports all
    write their strings through it. *)

(** [escape s] is [s] as the body of a JSON string literal: a double
    quote, a backslash, a newline and a tab are escaped with a backslash
    (the last two as [n] and [t]); every other control character becomes
    a [u00XX] escape. *)
val escape : string -> string

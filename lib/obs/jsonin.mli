(** The JSON value with its one parser and its one printer.

    Every JSON document the tools write is built as a {!value} and
    printed by {!print}: compact, no whitespace, one float format
    (six fractional digits, never an exponent). {!parse} reads any
    JSON back, so [print (parse_exn (print v)) = print v] for every
    value with finite floats, and [parse_exn (print v) = v] when [v]
    holds no [Float]. *)

type value =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of value list
  | Obj of (string * value) list
      (** Fields in document order; duplicate keys are kept. *)

exception Bad of string * int
(** Parse failure: message and byte offset. *)

val parse_exn : string -> value
(** Parse one complete JSON value (trailing whitespace allowed).
    @raise Bad on malformed input. *)

val parse : string -> (value, string) result

(** {1 Printing} *)

val print : value -> string
(** Compact JSON. Strings escape the double quote, the backslash and
    every byte below 0x20 (newline, return and tab by letter, the rest
    as a 4-digit [u] escape); other bytes pass through. [Float f]
    prints as [%.6f]. *)

val save : string -> value -> unit
(** Write {!print}'s output to a file; ["-"] or ["/dev/stdout"]
    writes to stdout. *)

(** {1 Accessors} — shallow, [None] on shape mismatch. *)

val member : string -> value -> value option
(** First field with that key of an [Obj]. *)

val to_int : value -> int option
(** [Int], or a [Float] with integral value. *)

val to_float : value -> float option
(** [Float], or an [Int] widened. *)

val to_string : value -> string option
val to_list : value -> value list option
val to_obj : value -> (string * value) list option

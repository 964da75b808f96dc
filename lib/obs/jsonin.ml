(* The JSON value, its one parser and its one printer. Every JSON
   document the tools write (reports, lint findings, metrics, traces,
   events, telemetry) is built as a [value] and printed here, and
   everything the obs layer reads back (Snapshot.of_json, the
   telemetry replayer, proftop) is parsed here, so print and parse
   agree on one grammar and one float format. No JSON library is in
   the image; a recursive-descent parser over the whole value grammar
   is small enough to own. *)

type value =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of value list
  | Obj of (string * value) list

exception Bad of string * int  (* message, byte offset *)

let parse_exn s =
  let n = String.length s in
  let pos = ref 0 in
  let bad msg = raise (Bad (msg, !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    if peek () = Some c then incr pos
    else bad (Printf.sprintf "expected %C" c)
  in
  let keyword k v =
    if !pos + String.length k <= n && String.sub s !pos (String.length k) = k
    then begin
      pos := !pos + String.length k;
      v
    end
    else bad (Printf.sprintf "expected %s" k)
  in
  let hex4 () =
    if !pos + 4 > n then bad "truncated \\u escape";
    let v = int_of_string_opt ("0x" ^ String.sub s !pos 4) in
    pos := !pos + 4;
    match v with Some v -> v | None -> bad "malformed \\u escape"
  in
  (* Decoded \uXXXX code points are re-encoded as UTF-8, so a string
     round-trips through escape/parse byte-for-byte only when it was
     valid UTF-8; [print] only \u-escapes control bytes (< 0x20),
     which land in the single-byte range and always round-trip. *)
  let add_utf8 buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xc0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xe0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
    end
  in
  let string_lit () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> bad "unterminated string"
      | Some '"' -> incr pos
      | Some '\\' -> (
        incr pos;
        match peek () with
        | Some '"' -> incr pos; Buffer.add_char buf '"'; go ()
        | Some '\\' -> incr pos; Buffer.add_char buf '\\'; go ()
        | Some '/' -> incr pos; Buffer.add_char buf '/'; go ()
        | Some 'b' -> incr pos; Buffer.add_char buf '\b'; go ()
        | Some 'f' -> incr pos; Buffer.add_char buf '\012'; go ()
        | Some 'n' -> incr pos; Buffer.add_char buf '\n'; go ()
        | Some 'r' -> incr pos; Buffer.add_char buf '\r'; go ()
        | Some 't' -> incr pos; Buffer.add_char buf '\t'; go ()
        | Some 'u' ->
          incr pos;
          add_utf8 buf (hex4 ());
          go ()
        | _ -> bad "bad escape")
      | Some c ->
        incr pos;
        Buffer.add_char buf c;
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let number () =
    let start = !pos in
    if peek () = Some '-' then incr pos;
    let digits () =
      let seen = ref false in
      while (match peek () with Some '0' .. '9' -> true | _ -> false) do
        seen := true;
        incr pos
      done;
      if not !seen then bad "expected digits"
    in
    digits ();
    let is_float = ref false in
    if peek () = Some '.' then begin
      is_float := true;
      incr pos;
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      is_float := true;
      incr pos;
      (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
      digits ()
    | _ -> ());
    let lit = String.sub s start (!pos - start) in
    if !is_float then Float (float_of_string lit)
    else
      match int_of_string_opt lit with
      | Some i -> Int i
      | None -> Float (float_of_string lit)
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      incr pos;
      skip_ws ();
      if peek () = Some '}' then begin
        incr pos;
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws ();
          let k = string_lit () in
          skip_ws ();
          expect ':';
          let v = value () in
          fields := (k, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' -> incr pos; members ()
          | Some '}' -> incr pos
          | _ -> bad "expected ',' or '}'"
        in
        members ();
        Obj (List.rev !fields)
      end
    | Some '[' ->
      incr pos;
      skip_ws ();
      if peek () = Some ']' then begin
        incr pos;
        List []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = value () in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | Some ',' -> incr pos; elements ()
          | Some ']' -> incr pos
          | _ -> bad "expected ',' or ']'"
        in
        elements ();
        List (List.rev !items)
      end
    | Some '"' -> Str (string_lit ())
    | Some ('-' | '0' .. '9') -> number ()
    | Some 't' -> keyword "true" (Bool true)
    | Some 'f' -> keyword "false" (Bool false)
    | Some 'n' -> keyword "null" Null
    | _ -> bad "expected a JSON value"
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then bad "trailing bytes after the value";
  v

let parse s =
  match parse_exn s with
  | v -> Ok v
  | exception Bad (msg, off) ->
    Error (Printf.sprintf "JSON parse error at byte %d: %s" off msg)
  | exception Failure msg -> Error (Printf.sprintf "JSON parse error: %s" msg)

(* --- printing ------------------------------------------------------------ *)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* Compact, no whitespace. Floats always carry six fractional digits
   and never an exponent, so a Float prints with a '.' and parses back
   as a Float, and print (parse (print v)) = print v for every finite
   float. *)
let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (Printf.sprintf "%.6f" f)
  | Str s -> escape buf s
  | List vs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        write buf v)
      vs;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape buf k;
        Buffer.add_char buf ':';
        write buf v)
      fields;
    Buffer.add_char buf '}'

let print v =
  let buf = Buffer.create 1024 in
  write buf v;
  Buffer.contents buf

let save path v =
  let write oc = output_string oc (print v) in
  (* /dev/stdout via open_out would write through a second fd whose
     offset races the buffered report already on stdout; route it (and
     "-") through the stdout channel instead. *)
  if path = "-" || path = "/dev/stdout" then begin
    write stdout;
    flush stdout
  end
  else
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write oc)

(* --- accessors --------------------------------------------------------- *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None

let to_int = function
  | Int i -> Some i
  | Float f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_string = function Str s -> Some s | _ -> None

let to_list = function List l -> Some l | _ -> None

let to_obj = function Obj fields -> Some fields | _ -> None

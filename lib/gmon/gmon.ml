type hist = {
  h_lowpc : int;
  h_highpc : int;
  h_bucket_size : int;
  h_counts : int array;
}

type arc = { a_from : int; a_self : int; a_count : int }

type t = {
  hist : hist;
  arcs : arc list;
  ticks_per_second : int;
  cycles_per_tick : int;
  runs : int;
}

let n_buckets ~lowpc ~highpc ~bucket_size =
  (highpc - lowpc + bucket_size - 1) / bucket_size

let make_hist ~lowpc ~highpc ~bucket_size =
  if bucket_size <= 0 then invalid_arg "Gmon.make_hist: bucket_size must be positive";
  if lowpc < 0 || highpc <= lowpc then
    invalid_arg "Gmon.make_hist: need 0 <= lowpc < highpc";
  {
    h_lowpc = lowpc;
    h_highpc = highpc;
    h_bucket_size = bucket_size;
    h_counts = Array.make (n_buckets ~lowpc ~highpc ~bucket_size) 0;
  }

let bucket_of_pc h pc =
  if pc < h.h_lowpc || pc >= h.h_highpc then None
  else Some ((pc - h.h_lowpc) / h.h_bucket_size)

let bucket_range h i =
  let lo = h.h_lowpc + (i * h.h_bucket_size) in
  (lo, min (lo + h.h_bucket_size) h.h_highpc)

let total_ticks t = Array.fold_left ( + ) 0 t.hist.h_counts

let seconds_of_ticks t ticks = float_of_int ticks /. float_of_int t.ticks_per_second

let total_seconds t = seconds_of_ticks t (total_ticks t)

let arc_count_into t self =
  List.fold_left
    (fun acc a -> if a.a_self = self then acc + a.a_count else acc)
    0 t.arcs

let compare_arc a b =
  let c = Int.compare a.a_from b.a_from in
  if c <> 0 then c else Int.compare a.a_self b.a_self

(* The arc-table invariants shared by profiles and epochs: strictly
   sorted by (from, self), nonnegative counts. *)
let arc_errors err prefix arcs =
  let rec sorted = function
    | a :: (b :: _ as rest) ->
      if compare_arc a b >= 0 then
        err (Printf.sprintf "%sarcs not strictly sorted at (%d,%d)" prefix b.a_from b.a_self);
      sorted rest
    | _ -> ()
  in
  sorted arcs;
  List.iter
    (fun a ->
      if a.a_count < 0 then
        err (Printf.sprintf "%snegative arc count on (%d,%d)" prefix a.a_from a.a_self))
    arcs

let validate t =
  let errs = ref [] in
  let err fmt = Format.kasprintf (fun s -> errs := s :: !errs) fmt in
  let h = t.hist in
  if h.h_bucket_size <= 0 then err "bucket size %d not positive" h.h_bucket_size;
  if h.h_lowpc < 0 || h.h_highpc <= h.h_lowpc then
    err "bad pc range [%d,%d)" h.h_lowpc h.h_highpc;
  (* the bucket-count check only makes sense on a sane geometry (and
     n_buckets divides by the bucket size) *)
  if h.h_bucket_size > 0 && h.h_lowpc >= 0 && h.h_highpc > h.h_lowpc then begin
    let expect =
      n_buckets ~lowpc:h.h_lowpc ~highpc:h.h_highpc ~bucket_size:h.h_bucket_size
    in
    if Array.length h.h_counts <> expect then
      err "histogram has %d buckets, expected %d" (Array.length h.h_counts) expect
  end;
  Array.iteri (fun i c -> if c < 0 then err "negative count in bucket %d" i) h.h_counts;
  arc_errors (err "%s") "" t.arcs;
  if t.ticks_per_second <= 0 then err "ticks_per_second %d not positive" t.ticks_per_second;
  if t.cycles_per_tick <= 0 then err "cycles_per_tick %d not positive" t.cycles_per_tick;
  if t.runs < 1 then err "runs %d < 1" t.runs;
  match List.rev !errs with [] -> Ok () | es -> Error es

(* --- summing ---------------------------------------------------------- *)

let m_merges = Obs.Metrics.counter Obs.Metrics.default "gmon.merges"

let m_arcs_merged =
  Obs.Metrics.counter Obs.Metrics.default "gmon.arcs_merged"
    ~help:"arc records combined on key collision during profile summing"

(* Merge two tables sorted by [cmp] with unique keys, combining the
   entries whose keys collide. *)
let merge_sorted cmp add xs ys =
  let rec go xs ys acc =
    match (xs, ys) with
    | [], rest | rest, [] -> List.rev_append acc rest
    | x :: xs', y :: ys' ->
      let c = cmp x y in
      if c = 0 then go xs' ys' (add x y :: acc)
      else if c < 0 then go xs' ys (x :: acc)
      else go xs ys' (y :: acc)
  in
  go xs ys []

let merge_arcs xs ys =
  merge_sorted compare_arc (fun x y -> { x with a_count = x.a_count + y.a_count }) xs ys

let merge a b =
  let ha = a.hist and hb = b.hist in
  if
    ha.h_lowpc <> hb.h_lowpc || ha.h_highpc <> hb.h_highpc
    || ha.h_bucket_size <> hb.h_bucket_size
  then Error "cannot merge profiles with different histogram layouts"
  else if a.ticks_per_second <> b.ticks_per_second then
    Error "cannot merge profiles with different clock rates"
  else if a.cycles_per_tick <> b.cycles_per_tick then
    Error "cannot merge profiles with different cycle rates"
  else begin
    let counts = Array.mapi (fun i c -> c + hb.h_counts.(i)) ha.h_counts in
    let arcs = merge_arcs a.arcs b.arcs in
    Obs.Metrics.incr m_merges;
    Obs.Metrics.incr m_arcs_merged
      ~by:(List.length a.arcs + List.length b.arcs - List.length arcs);
    Ok
      {
        hist = { ha with h_counts = counts };
        arcs;
        ticks_per_second = a.ticks_per_second;
        cycles_per_tick = a.cycles_per_tick;
        runs = a.runs + b.runs;
      }
  end

(* Balanced k-way summing: merge adjacent pairs until one remains. The
   tree shape is invisible in the result — the merges here are exact
   integer sums, so any association yields the same profile (tested) —
   but a balanced tree keeps every intermediate table near its final
   merged size instead of replaying the accumulated union against each
   new input, as a left fold does. The store's compaction funnels
   through this same code path. *)
let merge_balanced ~empty merge = function
  | [] -> Error empty
  | xs ->
    let rec round acc = function
      | [] -> Ok (List.rev acc)
      | [ x ] -> Ok (List.rev (x :: acc))
      | x :: y :: rest -> (
        match merge x y with Error e -> Error e | Ok m -> round (m :: acc) rest)
    in
    let rec loop = function
      | [ x ] -> Ok x
      | xs -> ( match round [] xs with Error e -> Error e | Ok xs' -> loop xs')
    in
    loop xs

let merge_all gs = merge_balanced ~empty:"no profiles to merge" merge gs

(* --- the container layer ---------------------------------------------- *)

(* Every data file here is the same container: a versioned magic, a
   body of little-endian 64-bit fields, and a footer (8-byte tag plus
   the 64-bit FNV-1a of everything before it) so torn or bit-flipped
   writes are detectable. The interesting profiles come from the runs
   that died — a program killed mid-exit leaves a torn file, and one
   torn file must not poison a whole multi-run summing batch — so
   decoding reports structured errors carrying byte offsets and offers
   a salvage mode that recovers the valid prefix instead of rejecting
   the file.

   A format is a [family]: its magic, names, metrics and spans plus a
   body codec. The magic and checksum checks, the bounds-checked
   cursor, the trailing-bytes rule, salvage accounting and the
   load/save wrappers are written once, here. *)

type mode = [ `Strict | `Salvage ]

type decode_error = {
  de_path : string option;
  de_offset : int;
  de_context : string;
  de_msg : string;
}

let decode_error_to_string e =
  let path = match e.de_path with Some p -> p ^ ": " | None -> "" in
  if e.de_context = "" then Printf.sprintf "%sat byte %d: %s" path e.de_offset e.de_msg
  else Printf.sprintf "%sat byte %d: %s: %s" path e.de_offset e.de_context e.de_msg

type checksum_state = [ `Ok | `Missing | `Mismatch ]

type report = {
  r_checksum : checksum_state;
  r_dropped_buckets : int;
  r_dropped_arcs : int;
  r_dropped_bytes : int;
  r_notes : string list;
}

let report_degraded r =
  r.r_checksum <> `Ok || r.r_dropped_buckets > 0 || r.r_dropped_arcs > 0
  || r.r_dropped_bytes > 0 || r.r_notes <> []

let report_summary r =
  let checksum =
    match r.r_checksum with
    | `Ok -> []
    | `Missing -> [ "checksum footer missing (torn write?)" ]
    | `Mismatch -> [ "checksum mismatch" ]
  in
  let drop what n = if n > 0 then [ Printf.sprintf "%d %s dropped" n what ] else [] in
  String.concat "; "
    (checksum
    @ drop "bucket(s)" r.r_dropped_buckets
    @ drop "arc(s)" r.r_dropped_arcs
    @ drop "byte(s)" r.r_dropped_bytes
    @ r.r_notes)

(* A family's traffic and losses land in the process-wide registry: the
   retrospective found that "reading data files … represents the
   dominating factor" of gprof's own run time, so byte counts are
   first-class metrics, and callers can report exactly what salvage
   dropped without threading the report around. *)
type metrics = {
  bytes_written : Obs.Metrics.counter;
  bytes_read : Obs.Metrics.counter;
  files_loaded : Obs.Metrics.counter;
  files_saved : Obs.Metrics.counter;
  decode_errors : Obs.Metrics.counter;
  checksum_mismatches : Obs.Metrics.counter;
  salvaged_files : Obs.Metrics.counter;
  dropped_buckets : Obs.Metrics.counter option;  (* the report's buckets *)
  dropped_records : Obs.Metrics.counter;  (* the report's arcs slot *)
  dropped_bytes : Obs.Metrics.counter;
}

(* [what] names the payload in the byte counters' help; [rejected] and
   [recovered] are the help of the decode-error and salvaged-file
   counters; [records] names the report's dropped-records counter. *)
let family_metrics prefix ~what ~rejected ~recovered ~buckets ~records =
  let counter ?help name = Obs.Metrics.counter Obs.Metrics.default ?help (prefix ^ name) in
  {
    bytes_written = counter "bytes_written" ~help:(what ^ " bytes encoded");
    bytes_read = counter "bytes_read" ~help:(what ^ " bytes presented for decoding");
    files_loaded = counter "files_loaded";
    files_saved = counter "files_saved";
    decode_errors = counter "decode_errors" ~help:rejected;
    checksum_mismatches = counter "checksum_mismatches";
    salvaged_files = counter "salvage.files" ~help:recovered;
    dropped_buckets = (if buckets then Some (counter "salvage.dropped_buckets") else None);
    dropped_records = counter ("salvage.dropped_" ^ records);
    dropped_bytes = counter "salvage.dropped_bytes";
  }

(* Deliberate fault injection for the emission path: [Some n] makes
   the next save write only the first [n] bytes straight to the final
   path and stop — the torn file a non-atomic writer leaves when the
   process dies mid-condense. One-shot, consumed by the next save. *)
let torn_save_request : int option ref = ref None

let inject_torn_save n = torn_save_request := n

(* The framing every data file shares — the checksum footer and the
   crash-safe writer — also used by the store for its own files. *)
module Wire = struct
  let footer_magic = "GMCKSUM1"

  let footer_len = String.length footer_magic + 8

  let fnv1a64 ?len s =
    let len = match len with Some l -> l | None -> String.length s in
    let h = ref 0xcbf29ce484222325L in
    for i = 0 to len - 1 do
      h :=
        Int64.mul
          (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
          0x100000001b3L
    done;
    !h

  let add_footer buf =
    let body = Buffer.contents buf in
    Buffer.add_string buf footer_magic;
    Buffer.add_int64_le buf (fnv1a64 body)

  (* Locate the checksum footer: [body_len] is where the decodable
     payload ends. A file without a verifiable footer is treated as
     possibly torn — the whole string is the (suspect) body. The
     minimum length is the gmon magic plus the footer. *)
  let split_footer s =
    let len = String.length s in
    if
      len >= 11 + footer_len
      && String.sub s (len - footer_len) (String.length footer_magic) = footer_magic
    then begin
      let body_len = len - footer_len in
      let stored = String.get_int64_le s (len - 8) in
      if Int64.equal (fnv1a64 ~len:body_len s) stored then (`Ok, body_len)
      else (`Mismatch, body_len)
    end
    else (`Missing, len)

  let write_file_atomic ~what path data =
    match !torn_save_request with
    | Some n ->
      torn_save_request := None;
      let n = max 0 (min n (String.length data)) in
      (try
         let oc = open_out_bin path in
         Fun.protect
           ~finally:(fun () -> close_out oc)
           (fun () -> output_string oc (String.sub data 0 n));
         Error
           (Printf.sprintf
              "%s: fault injected: torn write stopped after %d of %d bytes" path n
              (String.length data))
       with Sys_error e -> Error e)
    | None -> (
      (* Write to a temp file in the same directory, then rename: a
         crash leaves either the old file or the new one, never a torn
         hybrid, and the checksum footer catches whatever a dying
         filesystem still manages to tear. *)
      let tmp = path ^ ".tmp" in
      try
        let oc = open_out_bin tmp in
        (try
           Fun.protect
             ~finally:(fun () -> close_out oc)
             (fun () -> output_string oc data)
         with Sys_error e ->
           (try Sys.remove tmp with Sys_error _ -> ());
           raise (Sys_error e));
        Sys.rename tmp path;
        Ok ()
      with Sys_error e -> Error (Printf.sprintf "%s: cannot save %s: %s" path what e))
end

open Wire

let put buf n = Buffer.add_int64_le buf (Int64.of_int n)

(* A counter array stored sparsely: the number of nonzero entries, then
   (index, value) for each. *)
let put_sparse buf counts =
  put buf (Array.fold_left (fun n x -> if x <> 0 then n + 1 else n) 0 counts);
  Array.iteri
    (fun i x ->
      if x <> 0 then begin
        put buf i;
        put buf x
      end)
    counts

let put_arcs buf arcs =
  put buf (List.length arcs);
  List.iter
    (fun a ->
      put buf a.a_from;
      put buf a.a_self;
      put buf a.a_count)
    arcs

(* The cursor over a body: bounds-checked reads plus the salvage
   bookkeeping that ends up in the report. *)
type cursor = {
  buf : string;
  path : string option;
  mode : mode;
  terse : bool;  (* errors carry no context string *)
  mutable limit : int;  (* where the body ends *)
  mutable pos : int;
  mutable lost_buckets : int;
  mutable lost_records : int;
  mutable lost_bytes : int;
  mutable notes : string list;  (* newest first *)
}

exception Bad of decode_error

let fail c ~offset ~context fmt =
  Printf.ksprintf
    (fun msg ->
      raise
        (Bad
           { de_path = c.path; de_offset = offset;
             de_context = (if c.terse then "" else context); de_msg = msg }))
    fmt

let note c fmt = Printf.ksprintf (fun m -> c.notes <- m :: c.notes) fmt

let strict c = c.mode = `Strict

(* Read one field. [ctx] names the field for the error message and is
   called only when the read fails, so the hot path builds no strings:
   formatting a context per field would cost more than the decode. *)
let get c ctx =
  if c.pos + 8 > c.limit then begin
    let have = c.limit - c.pos in
    if c.terse then
      fail c ~offset:c.pos ~context:"" "truncated reading %s: need 8 bytes, have %d"
        (ctx ()) have
    else
      fail c ~offset:c.pos ~context:(ctx ()) "need 8 bytes, have %d (file ends at %d)"
        have c.limit
  end;
  let v = Int64.to_int (String.get_int64_le c.buf c.pos) in
  c.pos <- c.pos + 8;
  v

(* How many of [n] claimed 8-byte fields the rest of the body can hold:
   the size for an array filled by reading them, so that a header
   claim cannot make the decoder allocate what the file does not
   contain (a read past the end fails before the array is indexed
   there). *)
let claim c n = min n ((c.limit - c.pos) / 8)

(* The body must end exactly where the footer begins. *)
let finish c =
  let extra = c.limit - c.pos in
  if extra <> 0 then
    if strict c then fail c ~offset:c.pos ~context:"end of file" "%d trailing bytes" extra
    else begin
      c.lost_bytes <- c.lost_bytes + extra;
      note c "%d trailing byte(s) ignored" extra
    end

(* [n] variable-length records, recovered whole or not at all: in
   salvage mode a failure inside record k drops k and everything after
   it — the prefix is intact data, the tail is never guessed at. *)
let records c n ~table ~unit ~dropped read =
  let rev = ref [] and k = ref 0 and last_good = ref c.pos in
  (try
     while !k < n do
       rev := read !k :: !rev;
       incr k;
       last_good := c.pos
     done
   with Bad e when c.mode = `Salvage ->
     dropped (n - !k);
     note c "%s damaged at byte %d: %s(s) %d..%d dropped" table e.de_offset unit
       (!k + 1) n;
     c.lost_bytes <- c.lost_bytes + (c.limit - !last_good);
     c.pos <- c.limit);
  List.rev !rev

(* Tables are written in their canonical order; a salvaged bit-flip may
   break it, so restore the order and drop duplicate keys (first record
   wins — reordering invents nothing, summing would). *)
let canonical c ~cmp ~table ~unsorted ~reordered xs =
  let rec sorted = function
    | a :: (b :: _ as rest) -> cmp a b < 0 && sorted rest
    | _ -> true
  in
  if sorted xs then xs
  else if strict c then fail c ~offset:c.pos ~context:table "%s" unsorted
  else begin
    note c "%s" reordered;
    let rec dedup = function
      | a :: b :: rest when cmp a b = 0 ->
        c.lost_records <- c.lost_records + 1;
        dedup (a :: rest)
      | a :: rest -> a :: dedup rest
      | [] -> []
    in
    dedup (List.stable_sort cmp xs)
  end

type obs = { metrics : metrics; load_span : string; save_span : string }

type 'a family = {
  magic : string;
  kind : string;  (* "a profile data file", for the bad-magic message *)
  noun : string;  (* what the crash-safe writer calls one *)
  terse : bool;
  obs : obs option;
  write : Buffer.t -> 'a -> unit;  (* the body, after the magic *)
  read : cursor -> 'a;  (* the body; must end with [finish] *)
  check : 'a -> (unit, string list) result;
}

let count f metric by =
  match f.obs with Some o -> Obs.Metrics.incr ~by (metric o.metrics) | None -> ()

(* A family's public codec; each format includes one. *)
module Codec (F : sig
  type t

  val family : t family
end) =
struct
  let sniff_bytes s = String.starts_with ~prefix:F.family.magic s

  let sniff_file path =
    match
      In_channel.with_open_bin path (fun ic ->
          really_input_string ic (String.length F.family.magic))
    with
    | s -> s = F.family.magic
    | exception (Sys_error _ | End_of_file) -> false

  let to_bytes x =
    let f = F.family in
    let buf = Buffer.create 1024 in
    Buffer.add_string buf f.magic;
    f.write buf x;
    add_footer buf;
    count f (fun m -> m.bytes_written) (Buffer.length buf);
    Buffer.contents buf

  let decode ?path ~mode s =
    let f = F.family in
    count f (fun m -> m.bytes_read) (String.length s);
    let c =
      { buf = s; path; mode; terse = f.terse; limit = String.length s; pos = 0;
        lost_buckets = 0; lost_records = 0; lost_bytes = 0; notes = [] }
    in
    let result =
      try
        let mlen = String.length f.magic in
        if not (sniff_bytes s) then
          if f.terse then fail c ~offset:0 ~context:"" "bad magic (not %s)" f.kind
          else
            fail c ~offset:0 ~context:"magic" "expected %S, found %S (not %s)" f.magic
              (String.sub s 0 (min (String.length s) mlen))
              f.kind;
        let checksum, body_len = split_footer s in
        if mode = `Strict && checksum <> `Ok then
          if f.terse then
            fail c ~offset:body_len ~context:"" "checksum footer %s: file is torn or corrupt"
              (if checksum = `Missing then "missing" else "mismatched")
          else
            fail c ~offset:body_len ~context:"checksum footer"
              "%s: file is torn or corrupt (total %d bytes)"
              (if checksum = `Missing then "missing"
               else "stored checksum disagrees with the body")
              (String.length s);
        if checksum = `Mismatch then count f (fun m -> m.checksum_mismatches) 1;
        c.limit <- body_len;
        c.pos <- mlen;
        let x = f.read c in
        (match f.check x with
        | Ok () -> ()
        | Error es -> fail c ~offset:0 ~context:"validation" "%s" (String.concat "; " es));
        Ok
          ( x,
            { r_checksum = checksum; r_dropped_buckets = c.lost_buckets;
              r_dropped_arcs = c.lost_records; r_dropped_bytes = c.lost_bytes;
              r_notes = List.rev c.notes } )
      with Bad e -> Error e
    in
    Option.iter
      (fun { metrics = m; _ } ->
        match result with
        | Error _ -> Obs.Metrics.incr m.decode_errors
        | Ok (_, r) when report_degraded r ->
          Obs.Metrics.incr m.salvaged_files;
          Option.iter (Obs.Metrics.incr ~by:r.r_dropped_buckets) m.dropped_buckets;
          Obs.Metrics.incr m.dropped_records ~by:r.r_dropped_arcs;
          Obs.Metrics.incr m.dropped_bytes ~by:r.r_dropped_bytes
        | Ok _ -> ())
      f.obs;
    result

  let of_bytes s =
    match decode ~mode:`Strict s with
    | Ok (x, _) -> Ok x
    | Error e -> Error (decode_error_to_string e)

  let save x path =
    let write () = write_file_atomic ~what:F.family.noun path (to_bytes x) in
    match F.family.obs with
    | None -> write ()
    | Some o ->
      Obs.Metrics.incr o.metrics.files_saved;
      Obs.Trace.with_span ~cat:"gmon" o.save_span write

  let load_report ?(mode : mode = `Strict) path =
    let load () =
      match In_channel.with_open_bin path In_channel.input_all with
      | s -> decode ~path ~mode s
      | exception Sys_error e ->
        count F.family (fun m -> m.decode_errors) 1;
        Error { de_path = Some path; de_offset = 0; de_context = "open"; de_msg = e }
    in
    match F.family.obs with
    | None -> load ()
    | Some o ->
      Obs.Metrics.incr o.metrics.files_loaded;
      Obs.Trace.with_span ~cat:"gmon" o.load_span ~args:[ ("path", path) ] load

  let load ?mode path =
    match load_report ?mode path with
    | Ok (x, _) -> Ok x
    | Error e -> Error (decode_error_to_string e)
end

(* Header fields and the checks every family applies to them. *)
let field c name =
  let offset = c.pos in
  (offset, get c (fun () -> "header field " ^ name))

let positive c (offset, v) name =
  if v <= 0 then fail c ~offset ~context:("header field " ^ name) "%d not positive" v

let at_least_one c (offset, v) name =
  if v < 1 then fail c ~offset ~context:("header field " ^ name) "%d < 1" v

(* The histogram header of gmon files and epoch containers. It is
   load-bearing — without the geometry and clock rates nothing
   downstream can be interpreted — so a failure here is unrecoverable
   even in salvage mode. Returns a profile shell (no counts, no arcs)
   and the bucket count the geometry implies. *)
let read_geometry c ~runs =
  let _, lowpc = field c "lowpc" in
  let hp_off, highpc = field c "highpc" in
  let bs = field c "bucket_size" in
  let tps = field c "ticks_per_second" in
  let cpt = field c "cycles_per_tick" in
  let runs = if runs then Some (field c "runs") else None in
  positive c bs "bucket_size";
  if lowpc < 0 || highpc <= lowpc then
    fail c ~offset:hp_off ~context:"header pc range" "bad range [%d,%d)" lowpc highpc;
  positive c tps "ticks_per_second";
  positive c cpt "cycles_per_tick";
  Option.iter (fun r -> at_least_one c r "runs") runs;
  let bucket_size = snd bs in
  let nb = n_buckets ~lowpc ~highpc ~bucket_size in
  if nb < 0 || nb > 1 lsl 26 then
    fail c ~offset:hp_off ~context:"header pc range"
      "range [%d,%d) at bucket size %d implies an absurd bucket count" lowpc highpc
      bucket_size;
  ( {
      hist =
        { h_lowpc = lowpc; h_highpc = highpc; h_bucket_size = bucket_size;
          h_counts = [||] };
      arcs = [];
      ticks_per_second = snd tps;
      cycles_per_tick = snd cpt;
      runs = (match runs with Some (_, r) -> r | None -> 1);
    },
    nb )

(* --- the gmon profile ------------------------------------------------- *)

let gmon_metrics =
  family_metrics "gmon." ~what:"profile data"
    ~rejected:"profile decodes rejected outright (strict or unsalvageable)"
    ~recovered:"profiles recovered with data loss by salvage decoding"
    ~buckets:true ~records:"arcs"

let write_profile buf t =
  List.iter (put buf)
    [ t.hist.h_lowpc; t.hist.h_highpc; t.hist.h_bucket_size; t.ticks_per_second;
      t.cycles_per_tick; t.runs; Array.length t.hist.h_counts ];
  Array.iter (put buf) t.hist.h_counts;
  put_arcs buf t.arcs

let read_profile c =
  let shell, expect = read_geometry c ~runs:true in
  let nb_off = c.pos in
  let stored_buckets = get c (fun () -> "bucket count") in
  if stored_buckets <> expect then begin
    if strict c then
      fail c ~offset:nb_off ~context:"bucket count"
        "stored count %d disagrees with the pc range (expected %d)" stored_buckets
        expect
    else
      note c "stored bucket count %d disagrees with the pc range; using %d"
        stored_buckets expect
  end;
  (* Buckets: in salvage mode a short or damaged histogram is
     zero-filled — zeros never invent ticks, and the geometry stays
     intact so the result still validates. *)
  let counts = Array.make (if strict c then claim c expect else expect) 0 in
  let i = ref 0 in
  (try
     while !i < expect do
       let off = c.pos and k = !i in
       let v = get c (fun () -> Printf.sprintf "bucket %d" k) in
       if v < 0 then
         if strict c then
           fail c ~offset:off ~context:(Printf.sprintf "bucket %d" k)
             "negative count %d" v
         else begin
           c.lost_buckets <- c.lost_buckets + 1;
           note c "bucket %d had negative count %d; zeroed" k v
         end
       else counts.(k) <- v;
       incr i
     done
   with Bad e when c.mode = `Salvage ->
     c.lost_buckets <- c.lost_buckets + (expect - !i);
     note c "histogram truncated at byte %d: buckets %d..%d zero-filled" e.de_offset
       !i (expect - 1);
     c.pos <- c.limit);
  if c.mode = `Salvage && stored_buckets > expect then begin
    let skip = min ((stored_buckets - expect) * 8) (c.limit - c.pos) in
    c.lost_bytes <- c.lost_bytes + skip;
    c.pos <- c.pos + skip
  end;
  (* Arcs: recover whole records; a partial trailing record or a
     record with a negative count is dropped, never repaired. *)
  let rev_arcs = ref [] in
  let n_read = ref 0 in
  (try
     let na_off = c.pos in
     let narcs = get c (fun () -> "arc count") in
     if narcs < 0 || narcs > 1 lsl 30 then
       fail c ~offset:na_off ~context:"arc count" "absurd value %d" narcs;
     while !n_read < narcs do
       let off = c.pos and k = !n_read in
       if c.pos + 24 > c.limit then
         fail c ~offset:c.pos ~context:(Printf.sprintf "arc %d" k)
           "need 24 bytes, have %d" (c.limit - c.pos);
       let a_from = get c (fun () -> "arc from") in
       let a_self = get c (fun () -> "arc self") in
       let a_count = get c (fun () -> "arc count field") in
       if a_count < 0 then
         if strict c then
           fail c ~offset:off ~context:(Printf.sprintf "arc %d" k)
             "negative traversal count %d" a_count
         else begin
           c.lost_records <- c.lost_records + 1;
           note c "arc %d (%d -> %d) had negative count %d; dropped" k a_from a_self
             a_count
         end
       else rev_arcs := { a_from; a_self; a_count } :: !rev_arcs;
       incr n_read
     done
   with Bad e when c.mode = `Salvage ->
     note c "arc table ends early at byte %d after %d whole record(s)" e.de_offset
       !n_read;
     c.lost_records <- c.lost_records + 1;
     c.lost_bytes <- c.lost_bytes + (c.limit - c.pos);
     c.pos <- c.limit);
  let arcs =
    canonical c ~cmp:compare_arc ~table:"arc table"
      ~unsorted:"records not strictly sorted" ~reordered:"arc table unsorted; reordered"
      (List.rev !rev_arcs)
  in
  finish c;
  { shell with hist = { shell.hist with h_counts = counts }; arcs }

let family =
  {
    magic = "GMONOCAML1\n";
    kind = "a profile data file";
    noun = "profile data";
    terse = false;
    obs = Some { metrics = gmon_metrics; load_span = "gmon-load"; save_span = "gmon-save" };
    write = write_profile;
    read = read_profile;
    check = validate;
  }

include Codec (struct
  type nonrec t = t

  let family = family
end)

(* --- quarantined summing -------------------------------------------- *)

let m_quarantined =
  Obs.Metrics.counter Obs.Metrics.default "gmon.quarantined_files"
    ~help:"undecodable profiles skipped by quarantined summing"

type quarantined = { q_path : string; q_reason : string }

let merge_all_quarantine inputs =
  let rev_quarantined = ref [] in
  let quarantine path reason =
    rev_quarantined := { q_path = path; q_reason = reason } :: !rev_quarantined;
    Obs.Metrics.incr m_quarantined
  in
  let acc =
    List.fold_left
      (fun acc (path, r) ->
        match r with
        | Error e ->
          quarantine path e;
          acc
        | Ok g -> (
          match acc with
          | None -> Some g
          | Some a -> (
            match merge a g with
            | Ok m -> Some m
            | Error e ->
              quarantine path e;
              Some a)))
      None inputs
  in
  match acc with
  | Some t -> Ok (t, List.rev !rev_quarantined)
  | None ->
    Error
      (if inputs = [] then "no profiles to merge"
       else
         Printf.sprintf "all %d profile(s) quarantined: %s" (List.length inputs)
           (String.concat "; "
              (List.map
                 (fun q -> Printf.sprintf "%s (%s)" q.q_path q.q_reason)
                 (List.rev !rev_quarantined))))

let load_merge ?(mode : mode = `Strict) paths =
  let loaded =
    List.map
      (fun p ->
        match load_report ~mode p with
        | Ok (t, rep) -> (p, Ok t, Some rep)
        | Error e ->
          (* the path is carried separately by the quarantine record *)
          (p, Error (decode_error_to_string { e with de_path = None }), None))
      paths
  in
  match
    merge_all_quarantine (List.map (fun (p, r, _) -> (p, r)) loaded)
  with
  | Error e -> Error e
  | Ok (t, quarantined) ->
    let reports =
      List.filter_map
        (fun (p, _, rep) -> Option.map (fun r -> (p, r)) rep)
        loaded
    in
    Ok (t, reports, quarantined)

let equal (a : t) b = a = b

let pp ppf t =
  Format.fprintf ppf
    "@[<v>profile: pc [%d,%d) step %d, %d ticks @@ %d Hz (%.3fs), %d run(s)"
    t.hist.h_lowpc t.hist.h_highpc t.hist.h_bucket_size (total_ticks t)
    t.ticks_per_second (total_seconds t) t.runs;
  Array.iteri
    (fun i c ->
      if c > 0 then
        let lo, hi = bucket_range t.hist i in
        Format.fprintf ppf "@,  bucket %d [%d,%d): %d" i lo hi c)
    t.hist.h_counts;
  List.iter
    (fun a -> Format.fprintf ppf "@,  arc %d -> %d: %d" a.a_from a.a_self a.a_count)
    t.arcs;
  Format.fprintf ppf "@]"

type profile = t

module Icount = struct
  type t = { text_size : int; counts : int array }

  let of_counts counts = { text_size = Array.length counts; counts = Array.copy counts }

  let count t addr =
    if addr < 0 || addr >= t.text_size then
      invalid_arg "Icount.count: address out of range";
    t.counts.(addr)

  let merge a b =
    if a.text_size <> b.text_size then
      Error "cannot merge instruction counts for different binaries"
    else
      Ok
        {
          text_size = a.text_size;
          counts = Array.mapi (fun i c -> c + b.counts.(i)) a.counts;
        }

  let write buf t =
    put buf t.text_size;
    put_sparse buf t.counts

  let read c =
    let text_size = get c (fun () -> "text size") in
    if text_size < 0 || text_size > 1 lsl 30 then
      fail c ~offset:(c.pos - 8) ~context:"" "absurd text size %d" text_size;
    let nonzero = get c (fun () -> "entry count") in
    if nonzero < 0 || nonzero > text_size then
      fail c ~offset:(c.pos - 8) ~context:"" "absurd entry count %d for text size %d"
        nonzero text_size;
    let counts = Array.make text_size 0 in
    for i = 1 to nonzero do
      let addr = get c (fun () -> Printf.sprintf "entry %d address" i) in
      let n = get c (fun () -> Printf.sprintf "entry %d count" i) in
      if addr < 0 || addr >= text_size then
        fail c ~offset:(c.pos - 16) ~context:"" "entry address %d outside text [0,%d)"
          addr text_size;
      if n <= 0 then fail c ~offset:(c.pos - 8) ~context:"" "nonpositive count %d" n;
      if counts.(addr) <> 0 then
        fail c ~offset:(c.pos - 16) ~context:"" "duplicate entry for address %d" addr;
      counts.(addr) <- n
    done;
    finish c;
    { text_size; counts }

  (* The oldest format here: strict only, unmetered, and its errors
     carry no context string. *)
  let family =
    {
      magic = "ICOUNTOCaml1\n";
      kind = "an instruction-count file";
      noun = "instruction counts";
      terse = true;
      obs = None;
      write;
      read;
      check = (fun _ -> Ok ());
    }

  include Codec (struct
    type nonrec t = t

    let family = family
  end)

  let load path =
    match In_channel.with_open_bin path In_channel.input_all with
    | s -> (
      match decode ~path ~mode:`Strict s with
      | Ok (t, _) -> Ok t
      | Error e -> Error (decode_error_to_string e))
    | exception Sys_error e -> Error e

  let equal (a : t) b = a = b
end

module Epoch = struct
  type entry = {
    ep_end_cycle : int;
    ep_end_tick : int;
    ep_counts : int array;
    ep_arcs : arc list;
  }

  type t = {
    e_lowpc : int;
    e_highpc : int;
    e_bucket_size : int;
    e_ticks_per_second : int;
    e_cycles_per_tick : int;
    e_epochs : entry list;
  }

  let n_epochs c = List.length c.e_epochs

  let container_buckets c =
    n_buckets ~lowpc:c.e_lowpc ~highpc:c.e_highpc ~bucket_size:c.e_bucket_size

  let validate c =
    let errs = ref [] in
    let err fmt = Format.kasprintf (fun s -> errs := s :: !errs) fmt in
    if c.e_bucket_size <= 0 then err "bucket size %d not positive" c.e_bucket_size;
    if c.e_lowpc < 0 || c.e_highpc <= c.e_lowpc then
      err "bad pc range [%d,%d)" c.e_lowpc c.e_highpc;
    if c.e_ticks_per_second <= 0 then
      err "ticks_per_second %d not positive" c.e_ticks_per_second;
    if c.e_cycles_per_tick <= 0 then
      err "cycles_per_tick %d not positive" c.e_cycles_per_tick;
    if !errs = [] then begin
      let nb = container_buckets c in
      let prev_cycle = ref 0 and prev_tick = ref 0 in
      List.iteri
        (fun k e ->
          let k = k + 1 in
          if Array.length e.ep_counts <> nb then
            err "epoch %d has %d buckets, expected %d" k
              (Array.length e.ep_counts) nb;
          Array.iteri
            (fun i n -> if n < 0 then err "epoch %d bucket %d negative" k i)
            e.ep_counts;
          arc_errors (err "%s") (Printf.sprintf "epoch %d " k) e.ep_arcs;
          if e.ep_end_cycle < !prev_cycle then
            err "epoch %d cycle boundary %d before %d" k e.ep_end_cycle !prev_cycle;
          if e.ep_end_tick < !prev_tick then
            err "epoch %d tick boundary %d before %d" k e.ep_end_tick !prev_tick;
          prev_cycle := e.ep_end_cycle;
          prev_tick := e.ep_end_tick)
        c.e_epochs
    end;
    match List.rev !errs with [] -> Ok () | es -> Error es

  let profile_of c e =
    {
      hist =
        { h_lowpc = c.e_lowpc; h_highpc = c.e_highpc;
          h_bucket_size = c.e_bucket_size; h_counts = Array.copy e.ep_counts };
      arcs = e.ep_arcs;
      ticks_per_second = c.e_ticks_per_second;
      cycles_per_tick = c.e_cycles_per_tick;
      runs = 1;
    }

  let nth c k =
    if k < 1 || k > n_epochs c then
      Error
        (Printf.sprintf "epoch %d out of range (container has %d)" k
           (n_epochs c))
    else Ok (List.nth c.e_epochs (k - 1))

  let sum c =
    match c.e_epochs with
    | [] -> Error "epoch container is empty"
    | es -> (
      match validate c with
      | Error errs -> Error (String.concat "; " errs)
      | Ok () ->
        let counts = Array.make (container_buckets c) 0 in
        let arcs =
          List.fold_left
            (fun acc e ->
              Array.iteri (fun i n -> counts.(i) <- counts.(i) + n) e.ep_counts;
              merge_arcs acc e.ep_arcs)
            [] es
        in
        Ok
          {
            hist =
              { h_lowpc = c.e_lowpc; h_highpc = c.e_highpc;
                h_bucket_size = c.e_bucket_size; h_counts = counts };
            arcs;
            ticks_per_second = c.e_ticks_per_second;
            cycles_per_tick = c.e_cycles_per_tick;
            runs = 1;
          })

  (* --- serialization ------------------------------------------------ *)

  let m_salvaged_epochs =
    Obs.Metrics.counter Obs.Metrics.default "gmon.salvage.dropped_epochs"
      ~help:"whole epochs dropped from the tail of torn timeline containers"

  let write buf c =
    List.iter (put buf)
      [ c.e_lowpc; c.e_highpc; c.e_bucket_size; c.e_ticks_per_second;
        c.e_cycles_per_tick; List.length c.e_epochs ];
    List.iter
      (fun e ->
        put buf e.ep_end_cycle;
        put buf e.ep_end_tick;
        put_sparse buf e.ep_counts;
        put_arcs buf e.ep_arcs)
      c.e_epochs

  let read c =
    let shell, nb = read_geometry c ~runs:false in
    let ne_off = c.pos in
    let stored_epochs = get c (fun () -> "epoch count") in
    if stored_epochs < 0 || stored_epochs > 1 lsl 20 then
      fail c ~offset:ne_off ~context:"epoch count" "absurd value %d" stored_epochs;
    let prev_cycle = ref 0 and prev_tick = ref 0 in
    let epochs =
      records c stored_epochs ~table:"epoch stream" ~unit:"epoch"
        ~dropped:(fun n -> Obs.Metrics.incr m_salvaged_epochs ~by:n)
        (fun k ->
          let ctx what () = Printf.sprintf "epoch %d %s" (k + 1) what in
          let end_cycle = get c (ctx "end_cycle") in
          let end_tick = get c (ctx "end_tick") in
          if end_cycle < !prev_cycle || end_tick < !prev_tick then
            fail c ~offset:c.pos ~context:(Printf.sprintf "epoch %d" (k + 1))
              "boundary (%d cycles, %d ticks) before its predecessor" end_cycle
              end_tick;
          let nz_off = c.pos in
          let nonzero = get c (ctx "bucket entry count") in
          if nonzero < 0 || nonzero > nb then
            fail c ~offset:nz_off ~context:(ctx "bucket entry count" ())
              "absurd value %d for %d buckets" nonzero nb;
          let counts = Array.make nb 0 in
          let prev_idx = ref (-1) in
          for _ = 1 to nonzero do
            let i_off = c.pos in
            let i = get c (ctx "bucket index") in
            let v = get c (ctx "bucket delta") in
            if i <= !prev_idx || i >= nb then
              fail c ~offset:i_off ~context:(ctx "bucket index" ())
                "index %d out of order or outside [0,%d)" i nb;
            if v < 0 then
              fail c ~offset:(i_off + 8) ~context:(ctx "bucket delta" ())
                "negative count %d" v;
            counts.(i) <- v;
            prev_idx := i
          done;
          let na_off = c.pos in
          let narcs = get c (ctx "arc count") in
          if narcs < 0 || narcs > 1 lsl 26 then
            fail c ~offset:na_off ~context:(ctx "arc count" ()) "absurd value %d" narcs;
          let rev_arcs = ref [] in
          for _ = 1 to narcs do
            let a_off = c.pos in
            let a_from = get c (ctx "arc from") in
            let a_self = get c (ctx "arc self") in
            let a_count = get c (ctx "arc count field") in
            let a = { a_from; a_self; a_count } in
            (match !rev_arcs with
            | prev :: _ when compare_arc prev a >= 0 ->
              fail c ~offset:a_off ~context:(ctx "arc table" ())
                "records not strictly sorted at (%d,%d)" a_from a_self
            | _ -> ());
            if a_count < 0 then
              fail c ~offset:(a_off + 16) ~context:(ctx "arc count field" ())
                "negative traversal count %d" a_count;
            rev_arcs := a :: !rev_arcs
          done;
          prev_cycle := end_cycle;
          prev_tick := end_tick;
          { ep_end_cycle = end_cycle; ep_end_tick = end_tick; ep_counts = counts;
            ep_arcs = List.rev !rev_arcs })
    in
    finish c;
    {
      e_lowpc = shell.hist.h_lowpc;
      e_highpc = shell.hist.h_highpc;
      e_bucket_size = shell.hist.h_bucket_size;
      e_ticks_per_second = shell.ticks_per_second;
      e_cycles_per_tick = shell.cycles_per_tick;
      e_epochs = epochs;
    }

  let family =
    {
      magic = "GMONEPOCH1\n";
      kind = "an epoch container";
      noun = "epoch container";
      terse = false;
      obs =
        Some { metrics = gmon_metrics; load_span = "epoch-load"; save_span = "epoch-save" };
      write;
      read;
      check = validate;
    }

  include Codec (struct
    type nonrec t = t

    let family = family
  end)

  let equal (a : t) b = a = b
end

module Sprof = struct
  type t = {
    sp_sample_interval : int;
    sp_ticks_per_second : int;
    sp_cycles_per_tick : int;
    sp_runs : int;
    sp_stacks : (int array * int) list;
  }

  (* Explicit lexicographic order over frame addresses (shorter stack
     first on a shared prefix): the canonical order every container
     stores its table in, so that equal merges are byte-identical
     regardless of the order inputs arrived in. Deliberately not the
     polymorphic compare, whose array ordering puts length first. *)
  let compare_stack a b =
    let la = Array.length a and lb = Array.length b in
    let rec go i =
      if i >= la || i >= lb then compare la lb
      else
        let c = compare a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

  let compare_entry (a, _) (b, _) = compare_stack a b

  (* Sort into canonical order and sum counts of duplicate stacks;
     zero- or negative-count entries are dropped (they carry no
     samples). *)
  let normalize stacks =
    List.fold_right
      (fun (s, c) acc ->
        match acc with
        | (s', c') :: rest when compare_stack s s' = 0 -> (s, c + c') :: rest
        | _ -> (s, c) :: acc)
      (List.filter (fun (_, c) -> c > 0) stacks |> List.stable_sort compare_entry)
      []

  let of_folded ~sample_interval ~ticks_per_second ~cycles_per_tick folded =
    if sample_interval < 1 then
      invalid_arg "Sprof.of_folded: sample_interval must be >= 1";
    if ticks_per_second < 1 then
      invalid_arg "Sprof.of_folded: ticks_per_second must be >= 1";
    if cycles_per_tick < 1 then
      invalid_arg "Sprof.of_folded: cycles_per_tick must be >= 1";
    {
      sp_sample_interval = sample_interval;
      sp_ticks_per_second = ticks_per_second;
      sp_cycles_per_tick = cycles_per_tick;
      sp_runs = 1;
      sp_stacks = normalize (List.map (fun (s, c) -> (Array.copy s, c)) folded);
    }

  let n_stacks t = List.length t.sp_stacks

  let n_samples t = List.fold_left (fun a (_, c) -> a + c) 0 t.sp_stacks

  let validate t =
    let errs = ref [] in
    let err fmt = Format.kasprintf (fun s -> errs := s :: !errs) fmt in
    if t.sp_sample_interval < 1 then
      err "sample_interval %d < 1" t.sp_sample_interval;
    if t.sp_ticks_per_second <= 0 then
      err "ticks_per_second %d not positive" t.sp_ticks_per_second;
    if t.sp_cycles_per_tick <= 0 then
      err "cycles_per_tick %d not positive" t.sp_cycles_per_tick;
    if t.sp_runs < 1 then err "runs %d < 1" t.sp_runs;
    List.iteri
      (fun i (s, c) ->
        if c < 1 then err "stack %d has nonpositive count %d" i c;
        Array.iter (fun a -> if a < 0 then err "stack %d has negative frame" i) s)
      t.sp_stacks;
    let rec sorted_ok i = function
      | [] | [ _ ] -> ()
      | (a, _) :: (((b, _) :: _) as rest) ->
        if compare_stack a b >= 0 then err "stacks not strictly sorted at %d" (i + 1);
        sorted_ok (i + 1) rest
    in
    sorted_ok 0 t.sp_stacks;
    match List.rev !errs with [] -> Ok () | es -> Error es

  (* --- self-observability ------------------------------------------- *)

  let metrics =
    family_metrics "sprof.codec." ~what:"sampled-profile"
      ~rejected:"sampled-profile decodes rejected outright"
      ~recovered:"sampled profiles recovered with data loss by salvage decoding"
      ~buckets:false ~records:"stacks"

  let m_merges = Obs.Metrics.counter Obs.Metrics.default "sprof.codec.merges"

  let m_stacks_merged =
    Obs.Metrics.counter Obs.Metrics.default "sprof.codec.stacks_merged"
      ~help:"stack records combined on key collision during summing"

  (* --- merge algebra ------------------------------------------------ *)

  let merge a b =
    if a.sp_sample_interval <> b.sp_sample_interval then
      Error "cannot merge sampled profiles with different sample intervals"
    else if a.sp_ticks_per_second <> b.sp_ticks_per_second then
      Error "cannot merge sampled profiles with different clock rates"
    else if a.sp_cycles_per_tick <> b.sp_cycles_per_tick then
      Error "cannot merge sampled profiles with different cycle rates"
    else begin
      (* Summing counts on collision is an exact integer sum, so the
         result is independent of merge order and association. *)
      let stacks =
        merge_sorted compare_entry (fun (s, x) (_, y) -> (s, x + y)) a.sp_stacks
          b.sp_stacks
      in
      Obs.Metrics.incr m_merges;
      Obs.Metrics.incr m_stacks_merged
        ~by:
          (List.length a.sp_stacks + List.length b.sp_stacks
          - List.length stacks);
      Ok
        {
          sp_sample_interval = a.sp_sample_interval;
          sp_ticks_per_second = a.sp_ticks_per_second;
          sp_cycles_per_tick = a.sp_cycles_per_tick;
          sp_runs = a.sp_runs + b.sp_runs;
          sp_stacks = stacks;
        }
    end

  let merge_all ss = merge_balanced ~empty:"no sampled profiles to merge" merge ss

  (* --- serialization ------------------------------------------------ *)

  let max_depth_wire = 1 lsl 20

  let write buf t =
    List.iter (put buf)
      [ t.sp_sample_interval; t.sp_ticks_per_second; t.sp_cycles_per_tick;
        t.sp_runs; List.length t.sp_stacks ];
    List.iter
      (fun (s, c) ->
        put buf c;
        put buf (Array.length s);
        Array.iter (put buf) s)
      t.sp_stacks

  (* Stack records are recovered whole or not at all: the record length
     depends on the stored depth, so nothing after a damaged record can
     be trusted. *)
  let read c =
    let si = field c "sample_interval" in
    let tps = field c "ticks_per_second" in
    let cpt = field c "cycles_per_tick" in
    let runs = field c "runs" in
    at_least_one c si "sample_interval";
    positive c tps "ticks_per_second";
    positive c cpt "cycles_per_tick";
    at_least_one c runs "runs";
    let ns_off = c.pos in
    let stored_stacks = get c (fun () -> "stack count") in
    if stored_stacks < 0 || stored_stacks > 1 lsl 26 then
      fail c ~offset:ns_off ~context:"stack count" "absurd value %d" stored_stacks;
    let stacks =
      records c stored_stacks ~table:"stack table" ~unit:"record"
        ~dropped:(fun n -> c.lost_records <- c.lost_records + n)
        (fun k ->
          let ctx what () = Printf.sprintf "stack record %d %s" (k + 1) what in
          let c_off = c.pos in
          let count = get c (ctx "count") in
          if count < 1 then
            fail c ~offset:c_off ~context:(ctx "count" ())
              "nonpositive sample count %d" count;
          let d_off = c.pos in
          let depth = get c (ctx "depth") in
          if depth < 0 || depth > max_depth_wire then
            fail c ~offset:d_off ~context:(ctx "depth" ()) "absurd value %d" depth;
          let stack = Array.make (claim c depth) 0 in
          for i = 0 to depth - 1 do
            let a_off = c.pos in
            let a = get c (ctx "frame") in
            if a < 0 then
              fail c ~offset:a_off ~context:(ctx "frame" ()) "negative address %d" a;
            stack.(i) <- a
          done;
          (stack, count))
    in
    finish c;
    {
      sp_sample_interval = snd si;
      sp_ticks_per_second = snd tps;
      sp_cycles_per_tick = snd cpt;
      sp_runs = snd runs;
      sp_stacks =
        canonical c ~cmp:compare_entry ~table:"stack table"
          ~unsorted:"records not in canonical order"
          ~reordered:"stack table out of order; reordered" stacks;
    }

  let family =
    {
      magic = "SPROFOCAML1\n";
      kind = "a sampled-profile file";
      noun = "sampled profile";
      terse = false;
      obs = Some { metrics; load_span = "sprof-load"; save_span = "sprof-save" };
      write;
      read;
      check = validate;
    }

  include Codec (struct
    type nonrec t = t

    let family = family
  end)

  let equal (a : t) b = a = b

  let pp ppf t =
    Format.fprintf ppf
      "@[<v>sampled profile: %d sample(s) over %d stack(s), interval %d @@ %d Hz, %d run(s)"
      (n_samples t) (n_stacks t) t.sp_sample_interval t.sp_ticks_per_second
      t.sp_runs;
    List.iter
      (fun (s, c) ->
        Format.fprintf ppf "@,  [%s] x %d"
          (String.concat ";" (Array.to_list (Array.map string_of_int s)))
          c)
      t.sp_stacks;
    Format.fprintf ppf "@]"
end

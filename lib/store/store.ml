(* The sharded, append-only profile store. See store.mli for the
   design contract; the layout on disk is

     DIR/MANIFEST                versioned header naming the shard count
     DIR/shard-NNN/seg-S.gmon    uncompacted tail segments (whole gmon
                                 payloads, checksum-framed, atomic)
     DIR/shard-NNN/compact-S.gmon  the shard's folded profile; S is the
                                 highest segment sequence folded into it
     DIR/shard-NNN/sseg-S.sprof, scompact-S.sprof
                                 the same pair for sampled profiles
     DIR/quarantine/q-*.bin      rejected submissions + .reason sidecars

   Everything durable goes through Gmon's crash-safe writer, so every
   file is either complete and checksummed or absent — recovery is a
   directory scan, not a log replay. The folded-through sequence number
   in the compact file's own name is what makes the scan unambiguous: a
   crash between "rename compact-N into place" and "delete the folded
   segments" leaves segments with seq <= N on disk, and recovery knows
   they are already counted and removes them instead of double-merging
   them. *)

(* How one kind of payload is stored: its codec, and the names of its
   segment and compact files. *)
type 'p codec = {
  c_load : string -> ('p, string) result;
  c_load_salvage : string -> ('p * Gmon.report, Gmon.decode_error) result;
  c_save : 'p -> string -> (unit, string) result;
  c_runs : 'p -> int;
  c_merge_all : 'p list -> ('p, string) result;
  c_segment : string;  (* segment file prefix *)
  c_compact : string;  (* compact file prefix *)
  c_ext : string;
  c_view_span : string;
}

let gmon_codec =
  {
    c_load = Gmon.load ~mode:`Strict;
    c_load_salvage = Gmon.load_report ~mode:`Salvage;
    c_save = Gmon.save;
    c_runs = (fun g -> g.Gmon.runs);
    c_merge_all = Gmon.merge_all;
    c_segment = "seg";
    c_compact = "compact";
    c_ext = ".gmon";
    c_view_span = "store-shard-view";
  }

let sprof_codec =
  {
    c_load = Gmon.Sprof.load ~mode:`Strict;
    c_load_salvage = Gmon.Sprof.load_report ~mode:`Salvage;
    c_save = Gmon.Sprof.save;
    c_runs = (fun (s : Gmon.Sprof.t) -> s.sp_runs);
    c_merge_all = Gmon.Sprof.merge_all;
    c_segment = "sseg";
    c_compact = "scompact";
    c_ext = ".sprof";
    c_view_span = "store-sprof-shard-view";
  }

(* One kind of payload in a shard: the arc profiles or the sampled
   profiles. Both tracks have the same lifecycle — tail segments, one
   compact file named by the highest sequence folded into it, a
   memoized merged view — so one shard can hold both kinds of
   submissions for a label without either poisoning the other. *)
type 'p track = {
  tr_codec : 'p codec;
  tr_dir : string;
  (* tail segments: (sequence, path, runs), oldest first *)
  mutable tr_segments : (int * string * int) list;
  mutable tr_next_seq : int;
  mutable tr_compact : 'p option;
  mutable tr_compact_seq : int;  (* 0 = no compact file *)
  (* memoized merged view; [None] = invalid, [Some v] = computed
     (where [v = None] means the track is empty) *)
  mutable tr_cache : 'p option option;
}

type shard = {
  sh_index : int;
  sh_dir : string;
  sh_arcs : Gmon.t track;
  sh_sampled : Gmon.Sprof.t track;
}

type t = {
  dir : string;
  n_shards : int;
  shards : shard array;
  mutable next_quarantine : int;
}

type open_report = {
  or_created : bool;
  or_segments : int;
  or_compacted : int;
  or_salvaged : int;
  or_quarantined : Gmon.quarantined list;
  or_notes : string list;
}

let open_report_degraded r =
  r.or_salvaged > 0 || r.or_quarantined <> [] || r.or_notes <> []

let open_report_summary r =
  let part cond s = if cond then [ s ] else [] in
  String.concat "; "
    (part (r.or_salvaged > 0)
       (Printf.sprintf "%d torn file(s) salvaged" r.or_salvaged)
    @ part
        (r.or_quarantined <> [])
        (Printf.sprintf "%d file(s) quarantined" (List.length r.or_quarantined))
    @ r.or_notes)

let default_shards = 8

(* --- observability --------------------------------------------------- *)

let m_appends =
  Obs.Metrics.counter Obs.Metrics.default "store.appends"
    ~help:"profiles durably appended as segments"

let m_quarantined =
  Obs.Metrics.counter Obs.Metrics.default "store.quarantined"
    ~help:"submissions and torn files moved to quarantine"

let m_compactions = Obs.Metrics.counter Obs.Metrics.default "store.compactions"

let m_segments_folded =
  Obs.Metrics.counter Obs.Metrics.default "store.segments_folded"
    ~help:"tail segments folded into compact profiles"

let m_cache_hits =
  Obs.Metrics.counter Obs.Metrics.default "store.cache.hits"
    ~help:"shard queries served from the cached merged view"

let m_cache_misses =
  Obs.Metrics.counter Obs.Metrics.default "store.cache.misses"
    ~help:"shard queries that re-read and re-merged segments"

let m_recovered =
  Obs.Metrics.counter Obs.Metrics.default "store.recovered_segments"
    ~help:"intact segments found when opening a store"

let m_salvaged =
  Obs.Metrics.counter Obs.Metrics.default "store.salvaged_segments"
    ~help:"torn files recovered with data loss when opening a store"

(* --- paths and small helpers ----------------------------------------- *)

let manifest_magic = "PROFSTORE1\n"

let manifest_path dir = Filename.concat dir "MANIFEST"

let shard_dir dir i = Filename.concat dir (Printf.sprintf "shard-%03d" i)

let quarantine_dir_of dir = Filename.concat dir "quarantine"

let scan_seq fmt name =
  try Scanf.sscanf name (Scanf.format_from_string fmt "%d%!") (fun n -> Some n)
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

(* A track's files: [PREFIX-<seq>EXT] in the shard directory. *)
let track_path tr prefix seq =
  Filename.concat tr.tr_dir
    (Printf.sprintf "%s-%08d%s" prefix seq tr.tr_codec.c_ext)

let track_seq tr prefix name =
  scan_seq (prefix ^ "-%d" ^ tr.tr_codec.c_ext ^ "%!") name

let mkdir_p path =
  let rec go p =
    if p <> "" && p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  try
    go path;
    if Sys.is_directory path then Ok ()
    else Error (Printf.sprintf "%s: exists and is not a directory" path)
  with Unix.Unix_error (e, _, _) ->
    Error (Printf.sprintf "%s: cannot create: %s" path (Unix.error_message e))

let list_dir path =
  match Sys.readdir path with
  | entries -> List.sort compare (Array.to_list entries)
  | exception Sys_error _ -> []

let file_size path = match (Unix.stat path).st_size with n -> n | exception _ -> 0

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error _ -> None

(* --- manifest --------------------------------------------------------- *)

let write_manifest dir ~shards =
  let buf = Buffer.create 64 in
  Buffer.add_string buf manifest_magic;
  Buffer.add_string buf (Printf.sprintf "shards %d\n" shards);
  Gmon.Wire.add_footer buf;
  Gmon.Wire.write_file_atomic ~what:"store manifest" (manifest_path dir)
    (Buffer.contents buf)

let read_manifest dir =
  match read_file (manifest_path dir) with
  | None -> `Missing
  | Some s -> (
    let state, body_len = Gmon.Wire.split_footer s in
    let mlen = String.length manifest_magic in
    if state <> `Ok then `Corrupt "checksum failure (torn write?)"
    else if body_len < mlen || String.sub s 0 mlen <> manifest_magic then
      `Corrupt "bad magic"
    else
      match
        Scanf.sscanf
          (String.sub s mlen (body_len - mlen))
          "shards %d\n%!"
          (fun n -> n)
      with
      | n when n >= 1 && n <= 4096 -> `Shards n
      | n -> `Corrupt (Printf.sprintf "absurd shard count %d" n)
      | exception _ -> `Corrupt "unparseable body")

(* --- quarantine ------------------------------------------------------- *)

let quarantine_bytes t ~origin ~reason bytes =
  let seq = t.next_quarantine in
  t.next_quarantine <- seq + 1;
  let base =
    Filename.concat (quarantine_dir_of t.dir) (Printf.sprintf "q-%06d" seq)
  in
  Obs.Metrics.incr m_quarantined;
  match
    Gmon.Wire.write_file_atomic ~what:"quarantined submission" (base ^ ".bin")
      bytes
  with
  | Error e -> Error e
  | Ok () ->
    (* the sidecar is advisory: losing it to a crash costs diagnostics,
       never data *)
    Gmon.Wire.write_file_atomic ~what:"quarantine reason" (base ^ ".reason")
      (Printf.sprintf "origin: %s\nreason: %s\n" origin reason)

(* --- opening and recovery -------------------------------------------- *)

type recovery = {
  mutable rv_segments : int;
  mutable rv_compacted : int;
  mutable rv_salvaged : int;
  mutable rv_quarantined : Gmon.quarantined list;
  mutable rv_notes : string list;
}

let quarantine_file t rv path reason =
  let bytes = Option.value ~default:"" (read_file path) in
  (match quarantine_bytes t ~origin:path ~reason bytes with
  | Ok () | Error _ -> ());
  (try Sys.remove path with Sys_error _ -> ());
  rv.rv_quarantined <- { Gmon.q_path = path; q_reason = reason } :: rv.rv_quarantined

(* The track's files with the given prefix, as (sequence, path). *)
let track_files tr prefix entries =
  List.filter_map
    (fun name ->
      Option.map
        (fun seq -> (seq, Filename.concat tr.tr_dir name))
        (track_seq tr prefix name))
    entries

(* Choose the track's compacted state. Compact files are examined from
   the highest folded-through sequence down; the first that decodes
   strictly wins. A higher compact file that does not decode can only
   be the remains of an interrupted (or fault-injected) compaction
   whose segments were therefore never deleted, so its content is still
   covered by the lower compact plus the surviving segments — it is
   quarantined, not salvaged. Only when no compact file decodes at all
   is the newest one salvaged, since then its valid prefix is the best
   remaining evidence. Lower intact compact files are subsumed by the
   chosen one and removed. *)
let recover_compacts t rv tr entries =
  let c = tr.tr_codec in
  let set g seq =
    tr.tr_compact <- Some g;
    tr.tr_compact_seq <- seq
  in
  let ordered =
    List.sort (fun (a, _) (b, _) -> compare b a) (track_files tr c.c_compact entries)
  in
  let rec choose damaged = function
    | [] -> (
      (* nothing strict-clean; salvage the newest damaged one, if any *)
      match List.rev damaged with
      | [] -> ()
      | (seq, path) :: rest -> (
        List.iter
          (fun (_, p) ->
            quarantine_file t rv p "superseded torn compact profile")
          rest;
        match c.c_load_salvage path with
        | Ok (g, rep) ->
          (match c.c_save g path with Ok () | Error _ -> ());
          set g seq;
          Obs.Metrics.incr m_salvaged;
          rv.rv_compacted <- rv.rv_compacted + 1;
          rv.rv_salvaged <- rv.rv_salvaged + 1;
          rv.rv_notes <-
            Printf.sprintf "%s: salvaged (%s)" path (Gmon.report_summary rep)
            :: rv.rv_notes
        | Error e ->
          quarantine_file t rv path
            (Gmon.decode_error_to_string { e with de_path = None })))
    | (seq, path) :: rest -> (
      match c.c_load path with
      | Ok g ->
        set g seq;
        rv.rv_compacted <- rv.rv_compacted + 1;
        (* everything below is strictly subsumed; everything damaged
           above is covered by us + surviving segments *)
        List.iter
          (fun (_, p) ->
            quarantine_file t rv p "torn compact profile (interrupted \
                                    compaction; its segments survive)")
          (List.rev damaged);
        List.iter
          (fun (_, p) ->
            rv.rv_notes <-
              Printf.sprintf "%s: removed (subsumed by newer compaction)" p
              :: rv.rv_notes;
            try Sys.remove p with Sys_error _ -> ())
          rest
      | Error _ -> choose ((seq, path) :: damaged) rest)
  in
  choose [] ordered

(* Each tail segment is kept intact, salvage-rewritten, or quarantined;
   segments at or below the compact sequence are stale leftovers of an
   interrupted post-compaction delete. *)
let recover_segments t rv tr entries =
  let c = tr.tr_codec in
  List.iter
    (fun (seq, path) ->
      tr.tr_next_seq <- max tr.tr_next_seq (seq + 1);
      if seq <= tr.tr_compact_seq then begin
        rv.rv_notes <-
          Printf.sprintf "%s: removed (already folded into compaction %d)" path
            tr.tr_compact_seq
          :: rv.rv_notes;
        try Sys.remove path with Sys_error _ -> ()
      end
      else
        match c.c_load path with
        | Ok g ->
          tr.tr_segments <- (seq, path, c.c_runs g) :: tr.tr_segments;
          Obs.Metrics.incr m_recovered;
          rv.rv_segments <- rv.rv_segments + 1
        | Error _ -> (
          match c.c_load_salvage path with
          | Ok (g, rep) ->
            (* rewrite the salvaged prefix so the segment is intact
               from here on; a failed rewrite keeps the torn file for
               the next recovery *)
            (match c.c_save g path with Ok () | Error _ -> ());
            tr.tr_segments <- (seq, path, c.c_runs g) :: tr.tr_segments;
            Obs.Metrics.incr m_salvaged;
            rv.rv_segments <- rv.rv_segments + 1;
            rv.rv_salvaged <- rv.rv_salvaged + 1;
            rv.rv_notes <-
              Printf.sprintf "%s: salvaged (%s)" path (Gmon.report_summary rep)
              :: rv.rv_notes
          | Error e ->
            quarantine_file t rv path
              (Gmon.decode_error_to_string { e with de_path = None })))
    (track_files tr c.c_segment entries);
  tr.tr_next_seq <- max tr.tr_next_seq (tr.tr_compact_seq + 1);
  tr.tr_segments <- List.sort compare tr.tr_segments

let recover_shard t rv sh =
  let entries = list_dir sh.sh_dir in
  recover_compacts t rv sh.sh_arcs entries;
  recover_compacts t rv sh.sh_sampled entries;
  recover_segments t rv sh.sh_arcs entries;
  recover_segments t rv sh.sh_sampled entries

let open_ ?(shards = default_shards) dir =
  if shards < 1 || shards > 4096 then
    Error (Printf.sprintf "store: absurd shard count %d" shards)
  else
    Obs.Trace.with_span ~cat:"store" "store-open" ~args:[ ("dir", dir) ]
    @@ fun () ->
    Result.bind (mkdir_p dir) @@ fun () ->
    let existing_shard_dirs =
      List.filter
        (fun name ->
          String.length name > 6
          && String.sub name 0 6 = "shard-"
          && Sys.is_directory (Filename.concat dir name))
        (list_dir dir)
    in
    let notes = ref [] in
    let created = ref false in
    let shard_count =
      match read_manifest dir with
      | `Shards n ->
        if List.length existing_shard_dirs <= n then Ok n
        else
          Error
            (Printf.sprintf
               "store %s: manifest says %d shard(s) but %d shard directories \
                exist"
               dir n
               (List.length existing_shard_dirs))
      | `Missing when existing_shard_dirs = [] ->
        (* a fresh store *)
        created := true;
        Result.map (fun () -> shards) (write_manifest dir ~shards)
      | `Missing ->
        (* segments exist but the manifest is gone: the shard count is
           load-bearing (it is the label-to-shard map), so rebuild it
           from the directories and say so *)
        let n = List.length existing_shard_dirs in
        notes :=
          Printf.sprintf "manifest missing; rebuilt for %d shard(s)" n :: !notes;
        Result.map (fun () -> n) (write_manifest dir ~shards:n)
      | `Corrupt why ->
        if existing_shard_dirs = [] then begin
          created := true;
          notes := Printf.sprintf "manifest corrupt (%s); recreated" why :: !notes;
          Result.map (fun () -> shards) (write_manifest dir ~shards)
        end
        else begin
          let n = List.length existing_shard_dirs in
          notes :=
            Printf.sprintf "manifest corrupt (%s); rebuilt for %d shard(s)" why n
            :: !notes;
          Result.map (fun () -> n) (write_manifest dir ~shards:n)
        end
    in
    Result.bind shard_count @@ fun n_shards ->
    Result.bind (mkdir_p (quarantine_dir_of dir)) @@ fun () ->
    let mk i =
      let sh_dir = shard_dir dir i in
      let track codec =
        { tr_codec = codec; tr_dir = sh_dir; tr_segments = []; tr_next_seq = 1;
          tr_compact = None; tr_compact_seq = 0; tr_cache = None }
      in
      { sh_index = i; sh_dir; sh_arcs = track gmon_codec;
        sh_sampled = track sprof_codec }
    in
    let shards_arr = Array.init n_shards mk in
    let rec make_dirs i =
      if i >= n_shards then Ok ()
      else
        match mkdir_p shards_arr.(i).sh_dir with
        | Error e -> Error e
        | Ok () -> make_dirs (i + 1)
    in
    Result.bind (make_dirs 0) @@ fun () ->
    let next_q =
      List.fold_left
        (fun acc name ->
          match scan_seq "q-%d.bin%!" name with
          | Some n -> max acc (n + 1)
          | None -> acc)
        1
        (list_dir (quarantine_dir_of dir))
    in
    let t = { dir; n_shards; shards = shards_arr; next_quarantine = next_q } in
    let rv =
      {
        rv_segments = 0;
        rv_compacted = 0;
        rv_salvaged = 0;
        rv_quarantined = [];
        rv_notes = [];
      }
    in
    Array.iter (recover_shard t rv) shards_arr;
    Ok
      ( t,
        {
          or_created = !created;
          or_segments = rv.rv_segments;
          or_compacted = rv.rv_compacted;
          or_salvaged = rv.rv_salvaged;
          or_quarantined = List.rev rv.rv_quarantined;
          or_notes = List.rev !notes @ List.rev rv.rv_notes;
        } )

let dir t = t.dir

let n_shards t = t.n_shards

let quarantine_dir t = quarantine_dir_of t.dir

let shard_of_label t label =
  Int64.to_int
    (Int64.rem
       (Int64.logand (Gmon.Wire.fnv1a64 label) Int64.max_int)
       (Int64.of_int t.n_shards))

(* --- appending -------------------------------------------------------- *)

let append_to tr x =
  let c = tr.tr_codec in
  let seq = tr.tr_next_seq in
  let path = track_path tr c.c_segment seq in
  (* bump first: even a failed (torn) write may leave a file at this
     path, and a retry must not collide with it *)
  tr.tr_next_seq <- seq + 1;
  match c.c_save x path with
  | Error e -> Error e
  | Ok () ->
    tr.tr_segments <- tr.tr_segments @ [ (seq, path, c.c_runs x) ];
    tr.tr_cache <- None;
    Obs.Metrics.incr m_appends;
    Ok ()

let shard_for t label = t.shards.(shard_of_label t label)

let append t ~label g = append_to (shard_for t label).sh_arcs g

let append_sprof t ~label sp = append_to (shard_for t label).sh_sampled sp

type payload = Arc of Gmon.t | Sampled of Gmon.Sprof.t

(* Submissions are routed by magic: an sprof payload goes to the
   sampled track, anything else is decoded as an arc profile. *)
let decode_submission bytes =
  let decoded =
    if Gmon.Sprof.sniff_bytes bytes then
      Result.map (fun (sp, _) -> Sampled sp) (Gmon.Sprof.decode ~mode:`Strict bytes)
    else Result.map (fun (g, _) -> Arc g) (Gmon.decode ~mode:`Strict bytes)
  in
  Result.map_error Gmon.decode_error_to_string decoded

let append_payload t ~label = function
  | Arc g -> append t ~label g
  | Sampled sp -> append_sprof t ~label sp

let quarantine_submission t ~label ~reason bytes =
  quarantine_bytes t ~origin:("submission " ^ label) ~reason bytes

let append_bytes t ~label bytes =
  match decode_submission bytes with
  | Ok p -> Result.map (fun () -> `Stored) (append_payload t ~label p)
  | Error reason ->
    Result.map
      (fun () -> `Quarantined reason)
      (quarantine_submission t ~label ~reason bytes)

(* --- queries ---------------------------------------------------------- *)

let load_segments tr =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | (_, path, _) :: rest -> (
      match tr.tr_codec.c_load path with
      | Ok x -> go (x :: acc) rest
      | Error e -> Error e)
  in
  go [] tr.tr_segments

let with_compact tr tail =
  match tr.tr_compact with Some c -> c :: tail | None -> tail

(* Merged payload of one shard's track: compacted state plus the
   uncompacted tail, [None] when empty. Served from the cache when no
   segment landed since the last call. *)
let view tr ~shard =
  match tr.tr_cache with
  | Some v ->
    Obs.Metrics.incr m_cache_hits;
    Ok v
  | None -> (
    Obs.Metrics.incr m_cache_misses;
    Obs.Trace.with_span ~cat:"store" tr.tr_codec.c_view_span
      ~args:[ ("shard", string_of_int shard) ]
    @@ fun () ->
    match load_segments tr with
    | Error e -> Error e
    | Ok tail -> (
      match with_compact tr tail with
      | [] ->
        tr.tr_cache <- Some None;
        Ok None
      | parts -> (
        match tr.tr_codec.c_merge_all parts with
        | Error e -> Error e
        | Ok m ->
          tr.tr_cache <- Some (Some m);
          Ok (Some m))))

let merged_track codec select t =
  let rec go acc i =
    if i >= t.n_shards then Ok (List.rev acc)
    else
      match view (select t.shards.(i)) ~shard:i with
      | Error e -> Error e
      | Ok None -> go acc (i + 1)
      | Ok (Some x) -> go (x :: acc) (i + 1)
  in
  match go [] 0 with
  | Error e -> Error e
  | Ok [] -> Ok None
  | Ok parts -> Result.map Option.some (codec.c_merge_all parts)

let merged t = merged_track gmon_codec (fun sh -> sh.sh_arcs) t

let merged_sprof t = merged_track sprof_codec (fun sh -> sh.sh_sampled) t

(* --- compaction ------------------------------------------------------- *)

let compact_track tr =
  match tr.tr_segments with
  | [] -> Ok 0
  | segs -> (
    let c = tr.tr_codec in
    match load_segments tr with
    | Error e -> Error e
    | Ok tail -> (
      match c.c_merge_all (with_compact tr tail) with
      | Error e -> Error e
      | Ok m -> (
        let folded_seq =
          List.fold_left (fun acc (s, _, _) -> max acc s) tr.tr_compact_seq segs
        in
        (* commit point: the rename of the compact file for
           <folded_seq> into place. A crash before it loses nothing
           (the old compact and every segment survive); a crash after
           it leaves stale segments with seq <= folded_seq and possibly
           the old compact file, all of which recovery identifies by
           sequence number and removes without double-counting. *)
        match c.c_save m (track_path tr c.c_compact folded_seq) with
        | Error e -> Error e
        | Ok () ->
          List.iter
            (fun (_, path, _) -> try Sys.remove path with Sys_error _ -> ())
            segs;
          if tr.tr_compact_seq > 0 then begin
            try Sys.remove (track_path tr c.c_compact tr.tr_compact_seq)
            with Sys_error _ -> ()
          end;
          let n = List.length segs in
          tr.tr_segments <- [];
          tr.tr_compact <- Some m;
          tr.tr_compact_seq <- folded_seq;
          tr.tr_cache <- Some (Some m);
          Obs.Metrics.incr m_segments_folded ~by:n;
          Ok n)))

let compact t =
  Obs.Trace.with_span ~cat:"store" "store-compact" @@ fun () ->
  Obs.Metrics.incr m_compactions;
  let rec go acc i =
    if i >= t.n_shards then Ok acc
    else
      match compact_track t.shards.(i).sh_arcs with
      | Error e -> Error e
      | Ok n -> (
        match compact_track t.shards.(i).sh_sampled with
        | Error e -> Error e
        | Ok ns -> go (acc + n + ns) (i + 1))
  in
  go 0 0

(* --- stats ------------------------------------------------------------ *)

type stats = {
  st_shards : int;
  st_segments : int;
  st_compacted_runs : int;
  st_total_runs : int;
  st_sprof_segments : int;
  st_sprof_runs : int;
  st_quarantined : int;
  st_cache_hits : int;
  st_cache_misses : int;
  st_disk_bytes : int;
}

(* (tail segments, compacted runs, tail runs, bytes on disk) *)
let track_stats tr =
  let tail_runs, tail_bytes =
    List.fold_left
      (fun (r, b) (_, path, runs) -> (r + runs, b + file_size path))
      (0, 0) tr.tr_segments
  in
  let compacted, compact_bytes =
    match tr.tr_compact with
    | Some x ->
      ( tr.tr_codec.c_runs x,
        file_size (track_path tr tr.tr_codec.c_compact tr.tr_compact_seq) )
    | None -> (0, 0)
  in
  (List.length tr.tr_segments, compacted, tail_runs, tail_bytes + compact_bytes)

let stats t =
  let totals select =
    Array.fold_left
      (fun (s, c, r, b) sh ->
        let s', c', r', b' = track_stats (select sh) in
        (s + s', c + c', r + r', b + b'))
      (0, 0, 0, 0) t.shards
  in
  let segments, compacted, tail_runs, arc_bytes = totals (fun sh -> sh.sh_arcs) in
  let ssegments, scompacted, stail_runs, sprof_bytes =
    totals (fun sh -> sh.sh_sampled)
  in
  let quarantined =
    List.length
      (List.filter
         (fun n -> Filename.check_suffix n ".bin")
         (list_dir (quarantine_dir t)))
  in
  {
    st_shards = t.n_shards;
    st_segments = segments;
    st_compacted_runs = compacted;
    st_total_runs = compacted + tail_runs;
    st_sprof_segments = ssegments;
    st_sprof_runs = scompacted + stail_runs;
    st_quarantined = quarantined;
    st_cache_hits = Obs.Metrics.counter_value m_cache_hits;
    st_cache_misses = Obs.Metrics.counter_value m_cache_misses;
    st_disk_bytes = arc_bytes + sprof_bytes;
  }

type shard_info = {
  si_index : int;
  si_segments : int;
  si_sprof_segments : int;
  si_compact_seq : int;
  si_scompact_seq : int;
}

let shard_info t =
  Array.to_list
    (Array.map
       (fun sh ->
         {
           si_index = sh.sh_index;
           si_segments = List.length sh.sh_arcs.tr_segments;
           si_sprof_segments = List.length sh.sh_sampled.tr_segments;
           si_compact_seq = sh.sh_arcs.tr_compact_seq;
           si_scompact_seq = sh.sh_sampled.tr_compact_seq;
         })
       t.shards)

let last_compact_seq t =
  Array.fold_left
    (fun acc sh ->
      max acc (max sh.sh_arcs.tr_compact_seq sh.sh_sampled.tr_compact_seq))
    0 t.shards

let stats_json s : Obs.Jsonin.value =
  Obj
    [
      ("shards", Int s.st_shards);
      ("segments", Int s.st_segments);
      ("compacted_runs", Int s.st_compacted_runs);
      ("total_runs", Int s.st_total_runs);
      ("sprof_segments", Int s.st_sprof_segments);
      ("sprof_runs", Int s.st_sprof_runs);
      ("quarantined", Int s.st_quarantined);
      ("cache_hits", Int s.st_cache_hits);
      ("cache_misses", Int s.st_cache_misses);
      ("disk_bytes", Int s.st_disk_bytes);
    ]

(* --- merged-view queries ---------------------------------------------- *)

let top_buckets t ~n =
  match merged t with
  | Error e -> Error e
  | Ok None -> Ok []
  | Ok (Some g) ->
    let nonzero = ref [] in
    Array.iteri
      (fun i c -> if c > 0 then nonzero := (i, c) :: !nonzero)
      g.Gmon.hist.h_counts;
    let sorted =
      List.sort (fun (i1, c1) (i2, c2) -> compare (-c1, i1) (-c2, i2)) !nonzero
    in
    Ok
      (List.map
         (fun (i, c) ->
           let lo, hi = Gmon.bucket_range g.Gmon.hist i in
           (lo, hi, c))
         (List.filteri (fun k _ -> k < n) sorted))

let sync t =
  (* The atomic writer leaves durability of the *rename* to the
     directory: fsync every shard directory (and the root, for the
     manifest and quarantine) so a power cut after a graceful drain
     cannot roll back segments the daemon already acknowledged. *)
  let sync_dir path =
    match Unix.openfile path [ Unix.O_RDONLY ] 0 with
    | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "%s: %s" path (Unix.error_message e))
    | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          match Unix.fsync fd with
          | () -> Ok ()
          | exception Unix.Unix_error (e, _, _) ->
            (* some filesystems refuse fsync on a directory fd; that
               is a property of the mount, not a store failure *)
            if e = Unix.EINVAL || e = Unix.EBADF then Ok ()
            else Error (Printf.sprintf "%s: %s" path (Unix.error_message e)))
  in
  let dirs =
    t.dir
    :: quarantine_dir t
    :: Array.to_list (Array.map (fun sh -> sh.sh_dir) t.shards)
  in
  let rec go = function
    | [] -> Ok ()
    | d :: rest ->
      if not (Sys.file_exists d) then go rest
      else ( match sync_dir d with Ok () -> go rest | Error e -> Error e)
  in
  go dirs

(* Golden diagnostics for the data-file codecs.

   Every container format (gmon, epoch timeline, sampled profile,
   instruction counts) is fed a small intact file and systematic damage
   to it: every prefix truncation, every single-byte flip (the byte
   XOR 0xff), and every single-byte flip of the body with the checksum
   footer re-sealed, so that strict decoding gets past the checksum and
   reaches the body checks. Each case is decoded in strict and in
   salvage mode (instruction counts have a strict decoder only) and
   printed as one line: the rendered error, or a digest of the
   re-encoded result with the report summary and the nonzero deltas of
   the family's counters. The dune rule diffs this output against
   codec_diag.expected, so any change to an error string, an offset, a
   salvage decision or a metric shows up as a diff. *)

let gmon_counters =
  [ "bytes_read"; "bytes_written"; "decode_errors"; "checksum_mismatches";
    "salvage.files"; "salvage.dropped_buckets"; "salvage.dropped_arcs";
    "salvage.dropped_bytes"; "salvage.dropped_epochs"; "files_loaded";
    "files_saved" ]

let sprof_counters =
  [ "bytes_read"; "bytes_written"; "decode_errors"; "checksum_mismatches";
    "salvage.files"; "salvage.dropped_stacks"; "salvage.dropped_bytes";
    "files_loaded"; "files_saved" ]

let read_counters prefix names =
  List.map
    (fun n ->
      ( n,
        Option.value ~default:0
          (Obs.Metrics.find_counter Obs.Metrics.default (prefix ^ n)) ))
    names

(* Run [f] and render the counters that moved. *)
let with_deltas (prefix, names) f =
  let before = read_counters prefix names in
  let r = f () in
  let after = read_counters prefix names in
  let moved =
    List.filter_map
      (fun ((n, a), (_, b)) ->
        if b <> a then Some (Printf.sprintf "%s%+d" n (b - a)) else None)
      (List.combine before after)
  in
  (r, String.concat " " moved)

let short_digest s = String.sub (Digest.to_hex (Digest.string s)) 0 12

type family = {
  name : string;
  counters : string * string list;
  strict : string -> string;
  salvage : (string -> string) option;
}

(* One decode rendered as text; [encode] re-encodes a success. *)
let render decode encode mode s =
  match decode ~mode s with
  | Error e -> "error " ^ Gmon.decode_error_to_string e
  | Ok (x, rep) ->
    Printf.sprintf "ok %s | %s" (short_digest (encode x)) (Gmon.report_summary rep)

let gmon_family =
  {
    name = "gmon";
    counters = ("gmon.", gmon_counters);
    strict = render (Gmon.decode ?path:None) Gmon.to_bytes `Strict;
    salvage = Some (render (Gmon.decode ?path:None) Gmon.to_bytes `Salvage);
  }

let epoch_family =
  {
    name = "epoch";
    counters = ("gmon.", gmon_counters);
    strict = render (Gmon.Epoch.decode ?path:None) Gmon.Epoch.to_bytes `Strict;
    salvage =
      Some (render (Gmon.Epoch.decode ?path:None) Gmon.Epoch.to_bytes `Salvage);
  }

let sprof_family =
  {
    name = "sprof";
    counters = ("sprof.codec.", sprof_counters);
    strict = render (Gmon.Sprof.decode ?path:None) Gmon.Sprof.to_bytes `Strict;
    salvage =
      Some (render (Gmon.Sprof.decode ?path:None) Gmon.Sprof.to_bytes `Salvage);
  }

let icount_family =
  {
    name = "icount";
    counters = ("icount.", []);
    strict =
      (fun s ->
        match Gmon.Icount.of_bytes s with
        | Error e -> "error " ^ e
        | Ok c -> "ok " ^ short_digest (Gmon.Icount.to_bytes c));
    salvage = None;
  }

(* --- the intact inputs ------------------------------------------------ *)

let gmon_input =
  Gmon.to_bytes
    {
      Gmon.hist =
        { h_lowpc = 0; h_highpc = 20; h_bucket_size = 8; h_counts = [| 3; 0; 7 |] };
      arcs =
        [ { a_from = 2; a_self = 10; a_count = 4 };
          { a_from = 12; a_self = 10; a_count = 9 } ];
      ticks_per_second = 100;
      cycles_per_tick = 10;
      runs = 2;
    }

let epoch_input =
  Gmon.Epoch.to_bytes
    {
      Gmon.Epoch.e_lowpc = 0;
      e_highpc = 20;
      e_bucket_size = 8;
      e_ticks_per_second = 100;
      e_cycles_per_tick = 10;
      e_epochs =
        [ { ep_end_cycle = 40; ep_end_tick = 4; ep_counts = [| 0; 0; 5 |];
            ep_arcs = [ { a_from = 2; a_self = 10; a_count = 1 } ] };
          { ep_end_cycle = 90; ep_end_tick = 9; ep_counts = [| 2; 0; 3 |];
            ep_arcs = [] } ];
    }

let sprof_input =
  Gmon.Sprof.to_bytes
    (Gmon.Sprof.of_folded ~sample_interval:2 ~ticks_per_second:100
       ~cycles_per_tick:10
       [ ([| 4; 9 |], 3); ([| 4 |], 5) ])

let icount_input = Gmon.Icount.to_bytes (Gmon.Icount.of_counts [| 0; 7; 0; 2 |])

(* A checksum-valid gmon whose header claims 2^24 buckets and whose
   body holds none of them. *)
let crafted_input =
  let buf = Buffer.create 96 in
  Buffer.add_string buf "GMONOCAML1\n";
  List.iter
    (fun v -> Buffer.add_int64_le buf (Int64.of_int v))
    [ 0; 1 lsl 24; 1; 100; 10; 1; 1 lsl 24 ];
  Gmon.Wire.add_footer buf;
  Buffer.contents buf

(* --- damage ----------------------------------------------------------- *)

let flip s i =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
  Bytes.to_string b

let footer_len = 16

let reseal s =
  let buf = Buffer.create (String.length s) in
  Buffer.add_string buf (String.sub s 0 (String.length s - footer_len));
  Gmon.Wire.add_footer buf;
  Buffer.contents buf

let cases s =
  let n = String.length s in
  List.concat
    [ [ ("intact", s) ];
      List.init n (fun k -> (Printf.sprintf "trunc %d" k, String.sub s 0 k));
      List.init n (fun i -> (Printf.sprintf "flip %d" i, flip s i));
      List.init (n - footer_len) (fun i ->
          (Printf.sprintf "flip+reseal %d" i, reseal (flip s i))) ]

let line fam label mode decode s =
  let r, moved = with_deltas fam.counters (fun () -> decode s) in
  Printf.printf "%s %s %s: %s%s\n" fam.name label mode r
    (if moved = "" then "" else " | " ^ moved)

let run fam input =
  List.iter
    (fun (label, s) ->
      line fam label "strict" fam.strict s;
      Option.iter (fun d -> line fam label "salvage" d s) fam.salvage)
    (cases input)

(* Whole-file paths: save, load_report in both modes, a missing file,
   with the counters and the trace spans they leave. *)
let files () =
  (* work in a scratch directory so paths in messages stay relative *)
  let dir = Filename.temp_file "codec_diag" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Sys.chdir dir;
  Obs.Trace.set_enabled Obs.Trace.default true;
  let file fam name f =
    let r, moved = with_deltas fam.counters f in
    Printf.printf "%s file %s: %s%s\n" fam.name name r
      (if moved = "" then "" else " | " ^ moved)
  in
  let loaded = function
    | Error e -> "error " ^ Gmon.decode_error_to_string e
    | Ok (_, rep) -> "ok | " ^ Gmon.report_summary rep
  in
  let done_ = function Ok () -> "saved" | Error e -> "error " ^ e in
  let str = function Ok _ -> "ok" | Error e -> "error " ^ e in
  let g = Result.get_ok (Gmon.of_bytes gmon_input) in
  file gmon_family "save" (fun () -> done_ (Gmon.save g "diag.gmon"));
  file gmon_family "load" (fun () -> loaded (Gmon.load_report "diag.gmon"));
  file gmon_family "load-salvage" (fun () ->
      loaded (Gmon.load_report ~mode:`Salvage "diag.gmon"));
  file gmon_family "load-missing" (fun () -> str (Gmon.load "missing.gmon"));
  let e = Result.get_ok (Gmon.Epoch.of_bytes epoch_input) in
  file epoch_family "save" (fun () -> done_ (Gmon.Epoch.save e "diag.epoch"));
  file epoch_family "load" (fun () ->
      loaded (Gmon.Epoch.load_report "diag.epoch"));
  file epoch_family "load-missing" (fun () ->
      str (Gmon.Epoch.load "missing.epoch"));
  file epoch_family "sniff" (fun () ->
      Printf.sprintf "%b %b" (Gmon.Epoch.sniff_file "diag.epoch")
        (Gmon.Epoch.sniff_file "diag.gmon"));
  let sp =
    match Gmon.Sprof.decode ~mode:`Strict sprof_input with
    | Ok (sp, _) -> sp
    | Error _ -> assert false
  in
  file sprof_family "save" (fun () -> done_ (Gmon.Sprof.save sp "diag.sprof"));
  file sprof_family "load" (fun () ->
      loaded (Gmon.Sprof.load_report "diag.sprof"));
  file sprof_family "load-missing" (fun () ->
      str (Gmon.Sprof.load "missing.sprof"));
  file sprof_family "sniff" (fun () ->
      Printf.sprintf "%b %b" (Gmon.Sprof.sniff_file "diag.sprof")
        (Gmon.Sprof.sniff_file "missing.sprof"));
  let ic = Result.get_ok (Gmon.Icount.of_bytes icount_input) in
  file icount_family "save" (fun () ->
      done_ (Gmon.Icount.save ic "diag.icount"));
  file icount_family "load" (fun () -> str (Gmon.Icount.load "diag.icount"));
  file icount_family "load-missing" (fun () ->
      str (Gmon.Icount.load "missing.icount"));
  Out_channel.with_open_bin "diag.torn" (fun oc ->
      output_string oc (String.sub icount_input 0 20));
  file icount_family "load-torn" (fun () -> str (Gmon.Icount.load "diag.torn"));
  List.iter
    (fun (sp : Obs.Trace.span) ->
      Printf.printf "span %s/%s%s\n" sp.s_cat sp.s_name
        (String.concat ""
           (List.map (fun (k, v) -> Printf.sprintf " %s=%s" k v) sp.s_args)))
    (Obs.Trace.spans Obs.Trace.default);
  Array.iter Sys.remove (Sys.readdir ".");
  Sys.chdir Filename.parent_dir_name;
  Sys.rmdir dir

let () =
  run gmon_family gmon_input;
  run epoch_family epoch_input;
  run sprof_family sprof_input;
  run icount_family icount_input;
  (* strict only: salvage zero-fills the claimed geometry by design *)
  line gmon_family "crafted-2^24" "strict" gmon_family.strict crafted_input;
  List.iter
    (fun (label, s) ->
      Printf.printf "sniff %s: epoch=%b sprof=%b\n" label
        (Gmon.Epoch.sniff_bytes s) (Gmon.Sprof.sniff_bytes s))
    [ ("gmon", gmon_input); ("epoch", epoch_input); ("sprof", sprof_input);
      ("icount", icount_input); ("empty", "") ];
  files ()

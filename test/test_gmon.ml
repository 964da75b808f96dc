(* Tests for the profile data format: histogram geometry, validation,
   binary round-trips, and multi-run merging. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mk ?(lowpc = 0) ?(highpc = 20) ?(bucket = 1) ?(ticks = []) ?(arcs = [])
    ?(runs = 1) () =
  let hist = Gmon.make_hist ~lowpc ~highpc ~bucket_size:bucket in
  let counts = Array.copy hist.h_counts in
  List.iter (fun (b, c) -> counts.(b) <- c) ticks;
  {
    Gmon.hist = { hist with h_counts = counts };
    arcs =
      List.map (fun (f, s, c) -> { Gmon.a_from = f; a_self = s; a_count = c }) arcs
      |> List.sort (fun (a : Gmon.arc) b ->
             compare (a.a_from, a.a_self) (b.a_from, b.a_self));
    ticks_per_second = 60;
    cycles_per_tick = 16_666;
    runs;
  }

(* ------------------------------------------------------------------ *)

let test_hist_geometry () =
  check_int "buckets exact" 10 (Gmon.n_buckets ~lowpc:0 ~highpc:10 ~bucket_size:1);
  check_int "buckets rounded up" 4 (Gmon.n_buckets ~lowpc:0 ~highpc:10 ~bucket_size:3);
  let h = Gmon.make_hist ~lowpc:5 ~highpc:15 ~bucket_size:3 in
  Alcotest.(check (option int)) "pc below" None (Gmon.bucket_of_pc h 4);
  Alcotest.(check (option int)) "pc at low" (Some 0) (Gmon.bucket_of_pc h 5);
  Alcotest.(check (option int)) "pc mid" (Some 1) (Gmon.bucket_of_pc h 8);
  Alcotest.(check (option int)) "pc at high" None (Gmon.bucket_of_pc h 15);
  Alcotest.(check (pair int int)) "range clipped" (14, 15) (Gmon.bucket_range h 3);
  Alcotest.check_raises "bad bucket size"
    (Invalid_argument "Gmon.make_hist: bucket_size must be positive") (fun () ->
      ignore (Gmon.make_hist ~lowpc:0 ~highpc:10 ~bucket_size:0));
  Alcotest.check_raises "empty range"
    (Invalid_argument "Gmon.make_hist: need 0 <= lowpc < highpc") (fun () ->
      ignore (Gmon.make_hist ~lowpc:10 ~highpc:10 ~bucket_size:1))

let test_totals () =
  let g = mk ~ticks:[ (0, 30); (3, 90) ] () in
  check_int "total ticks" 120 (Gmon.total_ticks g);
  Alcotest.(check (float 1e-9)) "seconds" 2.0 (Gmon.total_seconds g);
  Alcotest.(check (float 1e-9)) "half second" 0.5 (Gmon.seconds_of_ticks g 30)

let test_arc_count_into () =
  let g = mk ~arcs:[ (1, 10, 3); (2, 10, 4); (3, 11, 5) ] () in
  check_int "into 10" 7 (Gmon.arc_count_into g 10);
  check_int "into 11" 5 (Gmon.arc_count_into g 11);
  check_int "into nothing" 0 (Gmon.arc_count_into g 12)

let test_validate () =
  (match Gmon.validate (mk ()) with
  | Ok () -> ()
  | Error es -> Alcotest.fail (String.concat ";" es));
  let bad_counts =
    let g = mk () in
    { g with hist = { g.hist with h_counts = Array.make 3 0 } }
  in
  (match Gmon.validate bad_counts with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "bucket-count mismatch accepted");
  let dup = mk ~arcs:[ (1, 10, 3); (1, 10, 4) ] () in
  (* mk sorts but keeps duplicates *)
  (match Gmon.validate dup with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "duplicate arcs accepted");
  let neg = mk ~arcs:[ (1, 10, -1) ] () in
  (match Gmon.validate neg with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "negative arc count accepted");
  (match Gmon.validate { (mk ()) with runs = 0 } with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "zero runs accepted");
  (match Gmon.validate { (mk ()) with ticks_per_second = 0 } with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "zero clock accepted");
  (* regression: a corrupted bucket size of 0 must produce a clean
     error, not Division_by_zero (found by the bit-flip fuzzer) *)
  let g = mk () in
  match Gmon.validate { g with hist = { g.hist with h_bucket_size = 0 } } with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "zero bucket size accepted"

let test_roundtrip_hand () =
  let g = mk ~ticks:[ (0, 3); (7, 11) ] ~arcs:[ (-1, 0, 1); (4, 8, 100) ] ~runs:2 () in
  match Gmon.of_bytes (Gmon.to_bytes g) with
  | Ok g2 -> check_bool "equal" true (Gmon.equal g g2)
  | Error e -> Alcotest.fail e

let test_corrupt_bytes () =
  let g = mk () in
  let bytes = Gmon.to_bytes g in
  (match Gmon.of_bytes "garbage" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad magic accepted");
  (match Gmon.of_bytes (String.sub bytes 0 (String.length bytes - 4)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncation accepted");
  match Gmon.of_bytes (bytes ^ "xx") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing bytes accepted"

let test_save_load () =
  let g = mk ~ticks:[ (2, 5) ] ~arcs:[ (1, 3, 9) ] () in
  let path = Filename.temp_file "gmon" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (match Gmon.save g path with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      match Gmon.load path with
      | Ok g2 -> check_bool "file roundtrip" true (Gmon.equal g g2)
      | Error e -> Alcotest.fail e)

let test_merge_basics () =
  let a = mk ~ticks:[ (0, 5) ] ~arcs:[ (1, 10, 2); (2, 11, 1) ] () in
  let b = mk ~ticks:[ (0, 7); (3, 1) ] ~arcs:[ (1, 10, 3); (5, 12, 4) ] () in
  match Gmon.merge a b with
  | Error e -> Alcotest.fail e
  | Ok m ->
    check_int "ticks add" 13 (Gmon.total_ticks m);
    check_int "bucket 0" 12 m.hist.h_counts.(0);
    check_int "runs add" 2 m.runs;
    Alcotest.(check (list (triple int int int)))
      "arcs union with sums"
      [ (1, 10, 5); (2, 11, 1); (5, 12, 4) ]
      (List.map (fun (a : Gmon.arc) -> (a.a_from, a.a_self, a.a_count)) m.arcs);
    (match Gmon.validate m with
    | Ok () -> ()
    | Error es -> Alcotest.fail (String.concat ";" es))

let test_merge_mismatch () =
  let a = mk () and b = mk ~highpc:30 () in
  (match Gmon.merge a b with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "layout mismatch accepted");
  let c = { (mk ()) with ticks_per_second = 100 } in
  match Gmon.merge a c with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "clock mismatch accepted"

let test_merge_all () =
  let gs = List.init 5 (fun i -> mk ~ticks:[ (i, i + 1) ] ()) in
  (match Gmon.merge_all gs with
  | Ok m ->
    check_int "five runs" 5 m.runs;
    check_int "summed ticks" 15 (Gmon.total_ticks m)
  | Error e -> Alcotest.fail e);
  match Gmon.merge_all [] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty merge accepted"

(* ------------------------------------------------------------------ *)
(* Properties *)

let gen_gmon =
  QCheck.Gen.(
    let* nbuckets = int_range 1 30 in
    let* counts = list_size (return nbuckets) (int_range 0 1000) in
    let* raw_arcs =
      list_size (int_range 0 20)
        (let* f = int_range (-1) 40 in
         let* s = int_range 0 29 in
         let* c = int_range 0 10_000 in
         return (f, s, c))
    in
    let* runs = int_range 1 5 in
    let dedup =
      List.sort_uniq (fun (f1, s1, _) (f2, s2, _) -> compare (f1, s1) (f2, s2)) raw_arcs
    in
    return
      {
        Gmon.hist =
          {
            h_lowpc = 0;
            h_highpc = nbuckets;
            h_bucket_size = 1;
            h_counts = Array.of_list counts;
          };
        arcs =
          List.map (fun (f, s, c) -> { Gmon.a_from = f; a_self = s; a_count = c }) dedup;
        ticks_per_second = 60;
        cycles_per_tick = 16_666;
        runs;
      })

let arb_gmon =
  QCheck.make
    ~print:(fun g -> Format.asprintf "%a" Gmon.pp g)
    gen_gmon

let roundtrip_prop =
  QCheck.Test.make ~name:"binary round-trip preserves profiles" ~count:200 arb_gmon
    (fun g ->
      match Gmon.of_bytes (Gmon.to_bytes g) with
      | Ok g2 -> Gmon.equal g g2
      | Error _ -> false)

let generated_valid =
  QCheck.Test.make ~name:"generated profiles validate" ~count:200 arb_gmon (fun g ->
      Gmon.validate g = Ok ())

(* Force compatible layouts by reusing [a]'s geometry with the other
   profile's data truncated/padded. *)
let fit_to (a : Gmon.t) (g : Gmon.t) =
  let n = Array.length a.Gmon.hist.h_counts in
  let counts =
    Array.init n (fun i ->
        if i < Array.length g.Gmon.hist.h_counts then g.Gmon.hist.h_counts.(i)
        else 0)
  in
  { g with Gmon.hist = { a.Gmon.hist with h_counts = counts } }

let merge_commutative =
  QCheck.Test.make ~name:"merge is commutative" ~count:200
    (QCheck.pair arb_gmon arb_gmon) (fun (a, b) ->
      let a = fit_to a a and b = fit_to a b in
      match (Gmon.merge a b, Gmon.merge b a) with
      | Ok x, Ok y -> Gmon.equal x y
      | _ -> false)

let merge_associative =
  QCheck.Test.make ~name:"merge is associative" ~count:200
    (QCheck.triple arb_gmon arb_gmon arb_gmon) (fun (a, b, c) ->
      let b = fit_to a b and c = fit_to a c in
      let ( >>= ) = Result.bind in
      let left = Gmon.merge a b >>= fun ab -> Gmon.merge ab c in
      let right = Gmon.merge b c >>= fun bc -> Gmon.merge a bc in
      match (left, right) with
      | Ok x, Ok y -> Gmon.equal x y
      | _ -> false)

(* The pairwise merge tree must be invisible: merge_all has to equal a
   plain left fold of merge, on any list length (the store's compaction
   and the daemon's merged view rely on this to agree with offline
   summing bit for bit). *)
let merge_all_equals_fold =
  QCheck.Test.make ~name:"merge_all = left fold of merge" ~count:200
    (QCheck.pair arb_gmon (QCheck.list_of_size (QCheck.Gen.int_range 0 12) arb_gmon))
    (fun (a, rest) ->
      let gs = fit_to a a :: List.map (fit_to a) rest in
      let fold =
        List.fold_left
          (fun acc g -> Result.bind acc (fun x -> Gmon.merge x g))
          (Ok (List.hd gs))
          (List.tl gs)
      in
      match (Gmon.merge_all gs, fold) with
      | Ok x, Ok y -> Gmon.equal x y
      | _ -> false)

let merge_all_order_blind =
  QCheck.Test.make ~name:"merge_all ignores input order" ~count:200
    (QCheck.pair arb_gmon (QCheck.list_of_size (QCheck.Gen.int_range 0 12) arb_gmon))
    (fun (a, rest) ->
      let gs = fit_to a a :: List.map (fit_to a) rest in
      match (Gmon.merge_all gs, Gmon.merge_all (List.rev gs)) with
      | Ok x, Ok y -> Gmon.equal x y
      | _ -> false)

let merge_ticks_additive =
  QCheck.Test.make ~name:"merge adds tick totals" ~count:200
    (QCheck.pair arb_gmon arb_gmon) (fun (a, b) ->
      let fit g =
        let n = Array.length a.Gmon.hist.h_counts in
        let counts =
          Array.init n (fun i ->
              if i < Array.length g.Gmon.hist.h_counts then g.Gmon.hist.h_counts.(i)
              else 0)
        in
        { g with Gmon.hist = { a.Gmon.hist with h_counts = counts } }
      in
      let a = fit a and b = fit b in
      match Gmon.merge a b with
      | Ok m -> Gmon.total_ticks m = Gmon.total_ticks a + Gmon.total_ticks b
      | Error _ -> false)

(* A checksum-valid file whose header promises far more data than its
   body holds must be rejected without allocating what the header
   claims: the body bounds every dense array in strict mode. *)
let bytes_allocated f =
  let before = Gc.allocated_bytes () in
  let r = f () in
  (r, Gc.allocated_bytes () -. before)

let sealed fields =
  let buf = Buffer.create 96 in
  List.iter
    (function
      | `S s -> Buffer.add_string buf s
      | `I v -> Buffer.add_int64_le buf (Int64.of_int v))
    fields;
  Gmon.Wire.add_footer buf;
  Buffer.contents buf

let test_strict_alloc_bounded () =
  let claimed = 1 lsl 24 in
  let bytes =
    sealed
      [ `S "GMONOCAML1\n"; `I 0; `I claimed; `I 1; `I 100; `I 10; `I 1; `I claimed ]
  in
  check_int "crafted file size" 83 (String.length bytes);
  let r, alloc = bytes_allocated (fun () -> Gmon.decode ~mode:`Strict bytes) in
  (match r with
  | Ok _ -> Alcotest.fail "an empty body cannot hold 2^24 buckets"
  | Error e ->
    Alcotest.(check string)
      "error unchanged" "at byte 67: bucket 0: need 8 bytes, have 0 (file ends at 67)"
      (Gmon.decode_error_to_string e));
  check_bool
    (Printf.sprintf "gmon decode allocated %.0f bytes, want < 1 MB" alloc)
    true (alloc < 1e6);
  (* one stack record claiming the maximum depth, with no frames *)
  let sp =
    sealed [ `S "SPROFOCAML1\n"; `I 1; `I 100; `I 10; `I 1; `I 1; `I 5; `I (1 lsl 20) ]
  in
  let r, alloc = bytes_allocated (fun () -> Gmon.Sprof.decode ~mode:`Strict sp) in
  check_bool "sprof rejected" true (Result.is_error r);
  check_bool
    (Printf.sprintf "sprof decode allocated %.0f bytes, want < 1 MB" alloc)
    true (alloc < 1e6)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "gmon"
    [
      ( "hist",
        [
          Alcotest.test_case "geometry" `Quick test_hist_geometry;
          Alcotest.test_case "totals" `Quick test_totals;
          Alcotest.test_case "arc_count_into" `Quick test_arc_count_into;
        ] );
      ( "validate",
        [ Alcotest.test_case "invariants" `Quick test_validate ] );
      ( "serialization",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip_hand;
          Alcotest.test_case "corrupt input" `Quick test_corrupt_bytes;
          Alcotest.test_case "save/load" `Quick test_save_load;
          Alcotest.test_case "strict decode allocation bounded by the body"
            `Quick test_strict_alloc_bounded;
          qt roundtrip_prop;
          qt generated_valid;
        ] );
      ( "merge",
        [
          Alcotest.test_case "basics" `Quick test_merge_basics;
          Alcotest.test_case "mismatch" `Quick test_merge_mismatch;
          Alcotest.test_case "merge_all" `Quick test_merge_all;
          qt merge_commutative;
          qt merge_associative;
          qt merge_all_equals_fold;
          qt merge_all_order_blind;
          qt merge_ticks_additive;
        ] );
    ]

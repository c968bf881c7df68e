(* CLI contract: shell the built binary and pin the exit codes and help
   surface the chaos suite's callers (CI, Makefile) rely on.  Everything
   here runs tiny seeded configurations — a few hundred milliseconds. *)

(* `dune runtest` runs with cwd = test/ inside _build (where the declared
   ../bin/geomix.exe dep lives); `dune exec test/test_cli.exe` runs from
   the project root. *)
let geomix =
  List.find Sys.file_exists
    [ "../bin/geomix.exe"; "_build/default/bin/geomix.exe" ]

(* Run the binary, capturing stdout+stderr; returns (exit code, output). *)
let run args =
  let cmd =
    Printf.sprintf "%s %s 2>&1" (Filename.quote geomix)
      (String.concat " " (List.map Filename.quote args))
  in
  let ic = Unix.open_process_in cmd in
  let buf = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  let code =
    match Unix.close_process_in ic with
    | Unix.WEXITED n -> n
    | Unix.WSIGNALED n | Unix.WSTOPPED n -> 128 + n
  in
  (code, Buffer.contents buf)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = affix || at (i + 1)) in
  n = 0 || at 0

let check_contains out affix =
  Alcotest.(check bool) (Printf.sprintf "output mentions %S" affix) true
    (contains ~affix out)

let test_chaos_help_documents_exit_codes () =
  let code, out = run [ "chaos"; "--help=plain" ] in
  Alcotest.(check int) "--help exits 0" 0 code;
  check_contains out "EXIT STATUS";
  (* The three contract outcomes must all be documented. *)
  check_contains out "bitwise identical";
  check_contains out "escaped the integrity guard";
  check_contains out "--sdc"

let test_unknown_subcommand_fails () =
  let code, out = run [ "frobnicate" ] in
  Alcotest.(check bool) "unknown subcommand exits nonzero" true (code <> 0);
  check_contains (String.lowercase_ascii out) "usage"

let test_serve_help_documents_surface () =
  let code, out = run [ "serve"; "--help=plain" ] in
  Alcotest.(check int) "serve --help exits 0" 0 code;
  check_contains out "--socket";
  check_contains out "--max-inflight";
  check_contains out "--queue-capacity";
  check_contains out "--cache-capacity";
  check_contains out "--max-requests"

let test_serve_listed_in_toplevel_help () =
  let code, out = run [ "--help=plain" ] in
  Alcotest.(check int) "--help exits 0" 0 code;
  check_contains out "serve"

let test_chaos_clean_run_exits_zero () =
  let code, out = run [ "chaos"; "--seed"; "1"; "--nt"; "4"; "--nb"; "8" ] in
  Alcotest.(check int) "clean chaos exits 0" 0 code;
  check_contains out "bitwise identical"

let test_chaos_sdc_contract () =
  let metrics = Filename.temp_file "geomix_sdc" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove metrics)
    (fun () ->
      let code, out =
        run
          [
            "chaos"; "--sdc"; "--seed"; "1"; "--nt"; "4"; "--nb"; "8";
            "--rate"; "0.5"; "--metrics-out"; metrics;
          ]
      in
      Alcotest.(check int) "recovered SDC run exits 0" 0 code;
      check_contains out "SDC detected";
      check_contains out "bitwise identical";
      let ic = open_in metrics in
      let json =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      check_contains json "integrity.sdc_detected";
      check_contains json "integrity.sdc_recovered")

(* The CI report-smoke gate: the command fails unless the streamed event
   log rebuilds the measured makespan bit-identically. *)
let test_report_smoke_replays_makespan () =
  let code, out = run [ "report"; "--smoke" ] in
  Alcotest.(check int) "report --smoke exits 0" 0 code;
  check_contains out "yes (bit-identical)"

(* The --verbose narration of one small seeded serial chaos run, as a
   multiset of "level component.name" taken from the stderr sink's lines
   (timestamps and fields dropped).  Seed 1 injects transient, crash and
   SDC faults and forces one pivot failure, so every producer speaks. *)
let test_chaos_verbose_narration () =
  let code, out =
    run
      [
        "chaos"; "--verbose"; "--seed"; "1"; "--nt"; "4"; "--nb"; "8";
        "--rate"; "0.3"; "--pivot-rate"; "0.3"; "--sdc"; "--workers"; "0";
      ]
  in
  Alcotest.(check int) "chaos --verbose exits 0" 0 code;
  let tag line =
    if String.length line = 0 || line.[0] <> '[' then None
    else
      match String.index_opt line ']' with
      | None -> None
      | Some i -> (
        let rest = String.sub line (i + 1) (String.length line - i - 1) in
        match List.filter (( <> ) "") (String.split_on_char ' ' rest) with
        | level :: name :: _ -> Some (level ^ " " ^ name)
        | _ -> None)
  in
  let got = List.filter_map tag (String.split_on_char '\n' out) in
  let counts =
    List.map
      (fun k -> (k, List.length (List.filter (( = ) k) got)))
      (List.sort_uniq compare got)
  in
  Alcotest.(check (list (pair string int))) "narrated multiset"
    [
      ("debug cholesky.task_begin", 40);
      ("debug cholesky.task_end", 40);
      ("error pool.error", 1);
      ("info cholesky.panel", 7);
      ("info pool.create", 1);
      ("warn cholesky.retry", 14);
      ("warn fault.inject", 19);
      ("warn fault.pivot", 1);
      ("warn integrity.sdc_detected", 5);
      ("warn integrity.sdc_recovered", 5);
      ("warn recovery.escalate", 1);
    ]
    counts

let () =
  Alcotest.run "cli"
    [
      ( "chaos contract",
        [
          Alcotest.test_case "help documents exit codes" `Quick
            test_chaos_help_documents_exit_codes;
          Alcotest.test_case "unknown subcommand" `Quick
            test_unknown_subcommand_fails;
          Alcotest.test_case "serve help surface" `Quick
            test_serve_help_documents_surface;
          Alcotest.test_case "serve listed" `Quick
            test_serve_listed_in_toplevel_help;
          Alcotest.test_case "clean run exits 0" `Quick
            test_chaos_clean_run_exits_zero;
          Alcotest.test_case "sdc detect-and-recover" `Quick
            test_chaos_sdc_contract;
          Alcotest.test_case "verbose narration" `Quick
            test_chaos_verbose_narration;
        ] );
      ( "report contract",
        [
          Alcotest.test_case "smoke replays makespan" `Quick
            test_report_smoke_replays_makespan;
        ] );
    ]

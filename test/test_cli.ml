(* CLI contract: shell the built binary and pin the exit codes and help
   surface the chaos suite's callers (CI, Makefile) rely on.  Everything
   here runs tiny seeded configurations — a few hundred milliseconds. *)

(* `dune runtest` runs with cwd = test/ inside _build (where the declared
   ../bin/geomix.exe dep lives); `dune exec test/test_cli.exe` runs from
   the project root. *)
let geomix =
  List.find Sys.file_exists
    [ "../bin/geomix.exe"; "_build/default/bin/geomix.exe" ]

(* Run the binary, capturing stdout+stderr; returns (exit code, output).
   [env] is a shell prefix of variable assignments, e.g. "TMPDIR=/tmp". *)
let run ?(env = "") args =
  let cmd =
    Printf.sprintf "%s %s %s 2>&1" env (Filename.quote geomix)
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

(* The help surface, pinned by the MD5 of every --help=plain page (the
   top level and each subcommand).  TMPDIR is fixed because ooc's --dir
   default is printed from it. *)
let help_digests =
  [
    ([], "13302eec6c087d39707f4c8697650a77");
    ([ "precision-map" ], "0a2b68af27652bf417d287e3a8bbea60");
    ([ "simulate" ], "fcb3c7c2e19b078265bc22079b1889f0");
    ([ "stats" ], "d36ab0c0fa582aba9fb86d0a914f3350");
    ([ "mle" ], "83a1d50a08d51f0679953b4a1bc07c95");
    ([ "gemm" ], "612c651e746d94120924d5b40cd103d7");
    ([ "chaos" ], "ad62683ef19348902653c621153a736b");
    ([ "ooc" ], "3908749d1b446646f8ebc16c8fac423a");
    ([ "report" ], "4620f3945557c187e002c330d975b1a1");
    ([ "autotune" ], "80d96f49c2165d2a046dd344d084a41e");
    ([ "serve" ], "8b3f5d4906cbfc90b49de515c7ca251c");
    ([ "top" ], "1591f21d5e122a604ca7bbdf10bebd56");
  ]

(* The output of small deterministic runs that touch no pool or clock. *)
let output_digests =
  [
    ([ "precision-map"; "--order"; "256"; "--nb"; "32"; "--render" ],
     "676c30c9f922a9f7d1c66217f9cc0936");
    ([ "precision-map"; "--order"; "256"; "--nb"; "32"; "--family"; "matern";
       "--nu"; "1.5"; "--u-req"; "1e-4" ],
     "a5fc93155411ba39f631b5105290f04a");
    ([ "simulate"; "--nt"; "8"; "--nb"; "1024"; "--config"; "fp64-fp16-32";
       "--machine"; "a100"; "--gantt" ],
     "eb9736e1d45b56f48ac57fda6d75768b");
    ([ "simulate"; "--nt"; "12"; "--nb"; "2048"; "--machine"; "summit";
       "--nodes"; "2"; "--strategy"; "ttc"; "--config"; "fp64-fp16" ],
     "d6d4ee7bc2d9608c2325c7e7cfc62398");
    ([ "gemm"; "--size"; "32"; "--prec"; "fp16" ], "c05d96ecbe00f22fc91b63405bff59f1");
    ([ "gemm"; "--size"; "16"; "--prec"; "bf16_32"; "--seed"; "3" ],
     "3a7cbedb863799af89a0d37e9b490038");
    ([ "stats"; "--nt"; "6"; "--nb"; "256" ], "468b1d770c6934d6113342dc3f0549de");
    ([ "stats"; "--nt"; "10"; "--config"; "fp64-fp16" ],
     "cea15d928450e6d6f0c891e2f31de8c6");
  ]

let check_digest ?env args expected =
  let code, out = run ?env args in
  let line = String.concat " " ("geomix" :: args) in
  Alcotest.(check int) (line ^ " exits 0") 0 code;
  Alcotest.(check string)
    (Printf.sprintf "MD5 of `%s` output:\n%s" line out)
    expected
    (Digest.to_hex (Digest.string out))

let test_help_digests () =
  List.iter
    (fun (cmd, md5) -> check_digest ~env:"TMPDIR=/tmp" (cmd @ [ "--help=plain" ]) md5)
    help_digests

let test_output_digests () =
  List.iter (fun (args, md5) -> check_digest args md5) output_digests

(* Out-of-range numbers are usage errors: cmdliner's exit 124 before the
   subcommand allocates, never an assertion failure or a NaN report. *)
let invalid_invocations =
  [
    [ "chaos"; "--nt"; "0" ];
    [ "chaos"; "--nb"; "0" ];
    [ "ooc"; "--nb"; "0" ];
    [ "ooc"; "--checkpoint-every"; "0" ];
    [ "simulate"; "--nt"; "0" ];
    [ "mle"; "--sites"; "0" ];
    [ "stats"; "--nt"; "0" ];
    [ "stats"; "--nb"; "0" ];
    [ "report"; "--nt"; "0" ];
    [ "chaos"; "--rate"; "2.0" ];
    [ "gemm"; "--size"; "0" ];
    [ "chaos"; "--attempts"; "0" ];
    [ "serve"; "--chaos-seed"; "1"; "--chaos-rate"; "2.0" ];
    [ "serve"; "--chaos-seed"; "1"; "--chaos-pivot-rate=-1" ];
  ]

let test_invalid_values_are_usage_errors () =
  List.iter
    (fun args ->
      let line = String.concat " " ("geomix" :: args) in
      (* Paths that cannot be created, and a serial pool: should a value
         slip through, the run fails fast instead of writing or serving. *)
      let extra =
        match List.hd args with
        | "ooc" -> [ "--dir"; "/nonexistent/geomix-ooc" ]
        | "serve" -> [ "--socket"; "/nonexistent/geomix.sock"; "--workers"; "0" ]
        | _ -> []
      in
      let code, out = run (args @ extra) in
      Alcotest.(check int) (line ^ " exits 124") 124 code;
      Alcotest.(check bool) (line ^ ": no fatal error") false (contains ~affix:"Fatal error" out);
      Alcotest.(check bool) (line ^ ": no nan") false (contains ~affix:"nan" out))
    invalid_invocations

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
      ( "surface pins",
        [
          Alcotest.test_case "help digests" `Quick test_help_digests;
          Alcotest.test_case "output digests" `Quick test_output_digests;
          Alcotest.test_case "invalid values are usage errors" `Quick
            test_invalid_values_are_usage_errors;
        ] );
      ( "report contract",
        [
          Alcotest.test_case "smoke replays makespan" `Quick
            test_report_smoke_replays_makespan;
        ] );
    ]

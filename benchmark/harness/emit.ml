let complete (spec : Spec.t) ~trace (emitted : Report.metric list) =
  let declared = if trace then spec.Spec.per_layer else spec.Spec.end_to_end in
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  List.iter
    (fun (m : Report.metric) ->
      match List.find_opt (fun (d : Spec.metric) -> d.Spec.name = m.Report.name) declared with
      | None -> err "emitted metric %s is not declared" m.Report.name
      | Some d ->
        if d.Spec.unit_ <> m.Report.unit_ then
          err "%s: emitted in %s, declared in %s" m.Report.name m.Report.unit_ d.Spec.unit_;
        if not (Float.is_finite m.Report.value) then err "%s is not finite" m.Report.name)
    emitted;
  let out =
    List.map
      (fun (d : Spec.metric) ->
        let is_d (m : Report.metric) = m.Report.name = d.Spec.name in
        match List.find_opt is_d emitted with
        | Some m -> m
        | None ->
          if not trace then err "end-to-end metric %s was not emitted" d.Spec.name;
          Report.metric d.Spec.name d.Spec.unit_ 0.)
      declared
  in
  match !errs with [] -> Ok out | es -> Error (List.rev es)

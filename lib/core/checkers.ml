module Seg = Pinpoint_seg.Seg

let deref_sink (_ : Seg.t) (u : Seg.use) =
  match u.Seg.ukind with Seg.Deref _ -> true | _ -> false

let call_arg_sink callee idx (_ : Seg.t) (u : Seg.use) =
  match u.Seg.ukind with
  | Seg.Call_arg { callee = c; arg_index } -> c = callee && arg_index = idx
  | _ -> false

let use_after_free =
  {
    Checker_spec.name = "use-after-free";
    description = "freed pointer value is dereferenced";
    follow_operands = false;
    sources = (fun seg -> Checker_spec.args_of_calls seg "free" 0);
    is_sink = deref_sink;
    exclude_same_sid = true;
  }

let double_free =
  {
    Checker_spec.name = "double-free";
    description = "freed pointer value reaches free() again";
    follow_operands = false;
    sources = (fun seg -> Checker_spec.args_of_calls seg "free" 0);
    is_sink = call_arg_sink "free" 0;
    exclude_same_sid = true;
  }

let path_traversal =
  {
    Checker_spec.name = "path-traversal";
    description = "tainted input reaches fopen() (CWE-23)";
    follow_operands = true;
    sources = (fun seg -> Checker_spec.recvs_of_calls seg [ "fgetc"; "input" ]);
    is_sink = call_arg_sink "fopen" 0;
    exclude_same_sid = false;
  }

let null_sources seg =
  Pinpoint_ir.Func.fold_stmts (Seg.func seg) ~init:[] ~f:(fun acc _ s ->
      match s.Pinpoint_ir.Stmt.kind with
      | Pinpoint_ir.Stmt.Assign (v, Pinpoint_ir.Stmt.Onull) ->
        (v, s.Pinpoint_ir.Stmt.sid) :: acc
      | _ -> acc)
  |> List.rev

let null_deref =
  {
    Checker_spec.name = "null-deref";
    description = "null constant flows to a dereference";
    follow_operands = false;
    sources = null_sources;
    is_sink = deref_sink;
    exclude_same_sid = false;
  }

let data_transmission =
  {
    Checker_spec.name = "data-transmission";
    description = "sensitive data reaches sendto() (CWE-402)";
    follow_operands = true;
    sources = (fun seg -> Checker_spec.recvs_of_calls seg [ "getpass" ]);
    is_sink = call_arg_sink "sendto" 0;
    exclude_same_sid = false;
  }

let all =
  [ use_after_free; double_free; path_traversal; data_transmission; null_deref ]

let by_name n =
  List.find_opt (fun (c : Checker_spec.t) -> c.Checker_spec.name = n) all

let class_mates (spec : Checker_spec.t) =
  List.filter
    (fun (c : Checker_spec.t) ->
      c.Checker_spec.name <> spec.Checker_spec.name
      && Pinpoint_summary.Vf.same_class (Checker_spec.vf_spec c)
           (Checker_spec.vf_spec spec))
    all

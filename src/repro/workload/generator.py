"""Synthetic "data cooking" workload generator.

Models the enterprise pattern of Section 2.1 (Figure 1): raw telemetry is
cooked into *shared datasets* which many downstream recurring analytics
consume.  The generator is calibrated to reproduce the paper's workload
shape at laptop scale:

* a star schema of shared datasets per cluster (one fact stream regenerated
  daily plus slowly-changing dimensions), consumed by many templates --
  Figure 2's heavy-tailed consumer distribution comes from Zipf-distributed
  template-to-fragment assignment;
* ~80% of templates recur daily on new data and parameters (Section 2:
  "almost 80% of the SCOPE workloads are recurring in nature");
* templates are built from a pool of shared *fragments* (filter+join cores
  over the shared datasets) so that a large fraction of subexpressions
  repeat across jobs (Figure 3: >75% repeated, mean repeat frequency ~5);
* some pipelines trigger all jobs at the start of the period, creating the
  concurrent submissions behind the paper's schedule-aware selection
  (Section 4) and concurrent-join opportunities (Figure 9).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.catalog.schema import TableSchema, schema_of
from repro.common.clock import SECONDS_PER_DAY, SECONDS_PER_HOUR
from repro.common.rng import rng_for, zipf_weights
from repro.engine.engine import ScopeEngine
from repro.plan.expressions import Row

SEGMENTS = ["Asia", "Europe", "Americas", "Africa"]
PLATFORMS = ["Windows", "Xbox", "Office", "Bing"]
COUNTRIES = ["CN", "IN", "DE", "US", "BR", "ZA"]
ZONES = ["east", "west", "north", "south"]


@dataclass(frozen=True)
class JobTemplate:
    """One recurring analytic job (the paper's "similar job templates
    executed periodically at regular intervals over new data sets and
    parameters")."""

    template_id: str
    pipeline_id: str
    virtual_cluster: str
    sql: str
    daily_offset_seconds: float
    uses_run_date: bool = True
    recurring: bool = True
    fragment_id: str = ""


@dataclass(frozen=True)
class JobInstance:
    """A concrete submission of a template on a given day."""

    template: JobTemplate
    submit_time: float
    params: Dict[str, object]

    @property
    def virtual_cluster(self) -> str:
        return self.template.virtual_cluster


@dataclass
class CookingWorkload:
    """A generated workload: shared datasets plus recurring templates."""

    name: str
    seed: int
    templates: List[JobTemplate]
    virtual_clusters: List[str]
    fact_rows_per_day: int = 1200
    users: int = 60
    devices: int = 24
    regions: int = 8
    #: One-off exploratory queries per day (unique predicates, never
    #: repeated) -- the non-recurring ~20% of the workload.
    adhoc_per_day: int = 4

    # ------------------------------------------------------------------ #
    # datasets (the data-cooking side of Figure 1)

    def install(self, engine: ScopeEngine, at: float = 0.0) -> None:
        """Register the shared datasets with their initial streams."""
        rng = rng_for(self.seed, self.name, "install")
        engine.register_table(self._users_schema(),
                              self._users_rows(rng), at=at)
        engine.register_table(self._devices_schema(),
                              self._devices_rows(rng), at=at)
        engine.register_table(self._regions_schema(),
                              self._regions_rows(rng), at=at)
        engine.register_table(self._events_schema(),
                              self._events_rows(day=0), at=at)
        engine.register_table(self._sessions_schema(),
                              self._sessions_rows(day=0), at=at)

    def cook(self, engine: ScopeEngine, day: int) -> None:
        """Daily cooking run: regenerate the fact streams (bulk update).

        Dimensions change rarely; facts are rewritten with the new day's
        telemetry, which rolls their stream GUIDs and thereby invalidates
        all views built over the previous day's streams.
        """
        at = day * SECONDS_PER_DAY
        engine.bulk_update("Events", self._events_rows(day), at=at)
        engine.bulk_update("Sessions", self._sessions_rows(day), at=at)

    # ------------------------------------------------------------------ #
    # job schedule

    def jobs_for_day(self, day: int) -> List[JobInstance]:
        """All submissions for one simulated day, ordered by time."""
        run_date = day_string(day)
        instances: List[JobInstance] = []
        for template in self.templates:
            if not template.recurring and day > 0:
                continue
            submit = day * SECONDS_PER_DAY + template.daily_offset_seconds
            params = {"runDate": run_date} if template.uses_run_date else {}
            instances.append(JobInstance(template, submit, params))
        instances.extend(self._adhoc_jobs(day))
        instances.sort(key=lambda i: (i.submit_time, i.template.template_id))
        return instances

    def _adhoc_jobs(self, day: int) -> List[JobInstance]:
        """Unique exploratory queries: never repeated, never reusable."""
        rng = rng_for(self.seed, self.name, "adhoc", day)
        instances: List[JobInstance] = []
        for index in range(self.adhoc_per_day):
            threshold = round(rng.uniform(1.0, 180.0), 3)
            key = rng.choice(["RegionId", "DeviceId", "ErrorCode"])
            agg = rng.choice(["SUM", "AVG", "MAX"])
            sql = (f"SELECT {key}, {agg}(Value) AS metric FROM Events "
                   f"WHERE Day = @runDate AND Value > {threshold} "
                   f"GROUP BY {key}")
            template = JobTemplate(
                template_id=f"{self.name}-adhoc-{day}-{index}",
                pipeline_id="",
                virtual_cluster=rng.choice(self.virtual_clusters),
                sql=sql,
                daily_offset_seconds=rng.uniform(1.0, 23.0) * 3600.0,
                uses_run_date=True,
                recurring=False,
            )
            submit = day * SECONDS_PER_DAY + template.daily_offset_seconds
            instances.append(JobInstance(
                template, submit, {"runDate": day_string(day)}))
        return instances

    def datasets(self) -> List[str]:
        return ["Events", "Sessions", "Users", "Devices", "Regions"]

    # ------------------------------------------------------------------ #
    # schemas and synthetic rows

    def _users_schema(self) -> TableSchema:
        return schema_of("Users", [
            ("UserId", "int"), ("Segment", "str"),
            ("Country", "str"), ("SignupYear", "int")])

    def _devices_schema(self) -> TableSchema:
        return schema_of("Devices", [
            ("DeviceId", "int"), ("Platform", "str"), ("OsVersion", "int")])

    def _regions_schema(self) -> TableSchema:
        return schema_of("Regions", [
            ("RegionId", "int"), ("RegionName", "str"), ("Zone", "str")])

    def _events_schema(self) -> TableSchema:
        return schema_of("Events", [
            ("UserId", "int"), ("DeviceId", "int"), ("RegionId", "int"),
            ("Day", "str"), ("Value", "float"), ("Duration", "float"),
            ("ErrorCode", "int")])

    def _sessions_schema(self) -> TableSchema:
        return schema_of("Sessions", [
            ("UserId", "int"), ("DeviceId", "int"), ("Day", "str"),
            ("Clicks", "int"), ("Seconds", "float")])

    def _users_rows(self, rng: random.Random) -> List[Row]:
        return [dict(UserId=i,
                     Segment=rng.choice(SEGMENTS),
                     Country=rng.choice(COUNTRIES),
                     SignupYear=rng.randint(2012, 2019))
                for i in range(self.users)]

    def _devices_rows(self, rng: random.Random) -> List[Row]:
        return [dict(DeviceId=i,
                     Platform=rng.choice(PLATFORMS),
                     OsVersion=rng.randint(7, 11))
                for i in range(self.devices)]

    def _regions_rows(self, rng: random.Random) -> List[Row]:
        return [dict(RegionId=i,
                     RegionName=f"region-{i}",
                     Zone=ZONES[i % len(ZONES)])
                for i in range(self.regions)]

    def _events_rows(self, day: int) -> List[Row]:
        rng = rng_for(self.seed, self.name, "events", day)
        run_date = day_string(day)
        count = max(1, int(self.fact_rows_per_day
                           * rng.uniform(0.85, 1.15)))
        return [dict(UserId=rng.randrange(self.users),
                     DeviceId=rng.randrange(self.devices),
                     RegionId=rng.randrange(self.regions),
                     Day=run_date,
                     Value=rng.uniform(0.5, 200.0),
                     Duration=rng.uniform(0.1, 30.0),
                     ErrorCode=rng.choice([0, 0, 0, 0, 1, 2]))
                for _ in range(count)]

    def _sessions_rows(self, day: int) -> List[Row]:
        rng = rng_for(self.seed, self.name, "sessions", day)
        run_date = day_string(day)
        count = max(1, self.fact_rows_per_day // 2)
        return [dict(UserId=rng.randrange(self.users),
                     DeviceId=rng.randrange(self.devices),
                     Day=run_date,
                     Clicks=rng.randint(1, 40),
                     Seconds=rng.uniform(5.0, 600.0))
                for _ in range(count)]


def day_string(day: int) -> str:
    """Stable date-like string for day indexes ('d0001')."""
    return f"d{day:04d}"


# --------------------------------------------------------------------- #
# workload construction


@dataclass(frozen=True)
class _Fragment:
    """A shared filter+join core over the cooked datasets."""

    fragment_id: str
    from_clause: str
    where: List[str]
    group_keys: List[str]
    agg_columns: List[str]
    datasets: Tuple[str, ...]


def _fragment_pool(rng: random.Random, count: int) -> List[_Fragment]:
    """A pool of distinct fragments; templates share draws from it."""
    pool: List[_Fragment] = []
    archetypes = ["seg", "plat", "day", "country", "triple", "sessions",
                  "activity"]
    for index in range(count):
        archetype = archetypes[index % len(archetypes)]
        if archetype == "seg":
            seg = rng.choice(SEGMENTS)
            pool.append(_Fragment(
                f"frag-{index}", "Events JOIN Users",
                [f"Segment = '{seg}'", "Day = @runDate"],
                ["Country", "SignupYear", "RegionId"],
                ["Value", "Duration"],
                ("Events", "Users")))
        elif archetype == "plat":
            plat = rng.choice(PLATFORMS)
            pool.append(_Fragment(
                f"frag-{index}", "Events JOIN Devices",
                [f"Platform = '{plat}'", "Day = @runDate"],
                ["OsVersion", "RegionId", "ErrorCode"],
                ["Value", "Duration"],
                ("Events", "Devices")))
        elif archetype == "day":
            pool.append(_Fragment(
                f"frag-{index}", "Events",
                ["Day = @runDate", f"ErrorCode = {rng.choice([0, 1, 2])}"],
                ["RegionId", "DeviceId"],
                ["Value", "Duration"],
                ("Events",)))
        elif archetype == "country":
            country = rng.choice(COUNTRIES)
            pool.append(_Fragment(
                f"frag-{index}", "Sessions JOIN Users",
                [f"Country = '{country}'", "Day = @runDate"],
                ["Segment", "SignupYear"],
                ["Clicks", "Seconds"],
                ("Sessions", "Users")))
        elif archetype == "triple":
            seg = rng.choice(SEGMENTS)
            pool.append(_Fragment(
                f"frag-{index}", "Events JOIN Users JOIN Devices",
                [f"Segment = '{seg}'", "Day = @runDate"],
                ["Platform", "Country", "OsVersion"],
                ["Value", "Duration"],
                ("Events", "Users", "Devices")))
        elif archetype == "sessions":
            pool.append(_Fragment(
                f"frag-{index}", "Sessions",
                ["Day = @runDate", f"Clicks > {rng.randint(2, 6)}"],
                ["UserId", "DeviceId"],
                ["Clicks", "Seconds"],
                ("Sessions",)))
        else:  # activity: correlate the two fact streams.  The natural
            # join equates UserId, DeviceId, and Day -- a multi-key join,
            # the shape Figure 9's model labels a sort-merge join.
            pool.append(_Fragment(
                f"frag-{index}", "Events JOIN Sessions",
                ["Day = @runDate", f"Clicks > {rng.randint(1, 4)}"],
                ["UserId", "RegionId"],
                ["Value", "Seconds"],
                ("Events", "Sessions")))
    return pool


_AGGS = ["SUM", "AVG", "MAX", "COUNT"]


def generate_workload(name: str = "cluster1",
                      seed: int = 7,
                      virtual_clusters: int = 3,
                      templates_per_vc: int = 10,
                      fragment_pool_size: Optional[int] = None,
                      burst_fraction: float = 0.3,
                      fact_rows_per_day: int = 1200,
                      adhoc_per_day: int = 6,
                      union_fraction: float = 0.6,
                      private_fraction: float = 0.5,
                      fragment_skew: float = 1.2) -> CookingWorkload:
    """Build a workload whose subexpression overlap matches the paper.

    ``fragment_pool_size`` controls sharing: fewer fragments for the same
    number of templates means higher repeat frequency.  The default sizes
    the pool so the mean repeat frequency lands near the paper's ~5.
    ``burst_fraction`` of pipelines submit all their jobs at the start of
    the period (concurrent submissions).
    """
    rng = rng_for(seed, name, "workload")
    vcs = [f"{name}-vc{i}" for i in range(virtual_clusters)]
    total_templates = templates_per_vc * virtual_clusters
    pool_size = fragment_pool_size or max(2, round(total_templates / 6))
    pool = _fragment_pool(rng, pool_size)
    weights = zipf_weights(len(pool), skew=fragment_skew)

    def select_over(fragment: _Fragment, unique_tag: str = "") -> str:
        key = rng.choice(fragment.group_keys)
        agg = rng.choice(_AGGS)
        measure = rng.choice(fragment.agg_columns)
        agg_sql = "COUNT(*)" if agg == "COUNT" else f"{agg}({measure})"
        where = " AND ".join(fragment.where)
        if unique_tag:
            # A template-private conjunct: this arm's whole subtree is
            # unique to the template (it repeats across days but is never
            # shared with another job, so it cannot be reused -- reuse
            # only covers *portions* of each job's DAG, as in production).
            where += f" AND {fragment.agg_columns[0]} > {unique_tag}"
        return (f"SELECT {key} AS k, {agg_sql} AS metric "
                f"FROM {fragment.from_clause} "
                f"WHERE {where} GROUP BY {key}")

    templates: List[JobTemplate] = []
    pipelines = max(1, total_templates // 8)
    for index in range(total_templates):
        # A pipeline belongs to one team, hence one virtual cluster.
        vc = vcs[(index % pipelines) % len(vcs)]
        fragment = rng.choices(pool, weights=weights, k=1)[0]
        if rng.random() < union_fraction:
            # Dashboard-style job: one report over two cores.  The second
            # core is sometimes private to this template (a unique
            # conjunct), so reuse covers only *portions* of such jobs --
            # their private arm keeps part of the input, processing, and
            # critical path untouched, as in production DAGs.
            second = rng.choices(pool, weights=weights, k=1)[0]
            if rng.random() < private_fraction:
                private = str(round(0.01 + (index * 0.77) % 5.0, 3))
                sql = (select_over(fragment)
                       + " UNION ALL "
                       + select_over(second, unique_tag=private))
                fragment_label = f"{fragment.fragment_id}+{second.fragment_id}!"
            else:
                sql = (select_over(fragment)
                       + " UNION ALL "
                       + select_over(second))
                fragment_label = f"{fragment.fragment_id}+{second.fragment_id}"
        else:
            sql = select_over(fragment)
            fragment_label = fragment.fragment_id
        pipeline_index = index % pipelines
        pipeline = f"{name}-pipe{pipeline_index}"
        burst = pipeline_index < pipelines * burst_fraction
        if burst:
            # Workflow tools "trigger all jobs at the start of every
            # period" (Section 4): the whole pipeline fires together, with
            # only a small trigger jitter between its jobs.
            # Half the periodic pipelines fire right at the period start
            # (before any views exist for the day); the rest mid-day, when
            # the day's views are already materialized.
            if pipeline_index % 3 == 1:
                # Mid-day pipeline: the day's views already exist, and its
                # jobs are spaced widely enough for early sealing to help.
                burst_hour, stagger = 9.0, 30.0
            else:
                # Period-start pipeline: fires before any of the day's
                # views can be materialized; reuse cannot help it.
                burst_hour, stagger = 1.0, 5.0
            offset = (burst_hour * SECONDS_PER_HOUR
                      + (index // pipelines) * stagger)
        else:
            offset = rng.uniform(0.5, 22.0) * SECONDS_PER_HOUR
        templates.append(JobTemplate(
            template_id=f"{name}-t{index}",
            pipeline_id=pipeline,
            virtual_cluster=vc,
            sql=sql,
            daily_offset_seconds=offset,
            uses_run_date=True,
            recurring=rng.random() < 0.8 or burst,
            fragment_id=fragment_label,
        ))
    return CookingWorkload(
        name=name,
        seed=seed,
        templates=templates,
        virtual_clusters=vcs,
        fact_rows_per_day=fact_rows_per_day,
        adhoc_per_day=adhoc_per_day,
    )
